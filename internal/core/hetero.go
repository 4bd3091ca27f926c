package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"hetgraph/internal/checkpoint"
	"hetgraph/internal/comm"
	"hetgraph/internal/fault"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/metrics"
)

// HeteroResult reports a heterogeneous device-group run. Per-iteration the
// ranks run in lockstep (the exchange is the synchronization point), so the
// combined execution time is the sum over iterations of the slowest rank's
// phase time, plus the communication time.
type HeteroResult struct {
	Iterations int64
	Converged  bool
	// Dev holds each rank's own result (its counters and phase times),
	// indexed by rank. In a degraded run these cover only the iterations
	// before the failure; in a healed run a restarted rank's result covers
	// its lockstep supersteps (pre-failure plus post-rejoin).
	Dev []Result
	// ExecSeconds is sum_i max_r(rank r's compute time in superstep i). In a
	// degraded or healed run it covers the lockstep iterations up to each
	// restored checkpoint plus the degraded windows' compute time.
	ExecSeconds float64
	// CommSeconds is the modeled interconnect exchange time (including the
	// per-iteration active-count allreduce).
	CommSeconds float64
	// SimSeconds = ExecSeconds + CommSeconds.
	SimSeconds float64
	// WallSeconds is host wall-clock time.
	WallSeconds float64

	// Degraded is true when at least one rank failed mid-run and the run
	// *ended* on the surviving subset: the survivors restored the last
	// checkpoint and finished without the failed ranks. A run that degraded
	// but healed (see Healed) ends with Degraded=false.
	Degraded bool
	// FailedRank is the rank that failed (-1 when no failure; the lowest
	// rank of the latest failure batch when several failed at once).
	FailedRank int
	// FailedRanks lists the ranks that were still down when the run ended,
	// sorted ascending (nil when the run ended at full membership).
	FailedRanks []int
	// FailedSuperstep is the superstep at which the failure was detected
	// (-1 if it could not be attributed to a specific superstep).
	FailedSuperstep int64
	// ResumedSuperstep is the checkpointed superstep the survivors resumed
	// from; supersteps in (ResumedSuperstep, failure) were recomputed. For
	// a disk-resumed run it is the superstep the cold start restored.
	ResumedSuperstep int64
	// Recovery aggregates the work done while the run was degraded (zero
	// unless a failure occurred): the permanent continuation, or — with
	// Options.Rejoin — the degraded windows between failure and rejoin.
	// With multiple survivors the counters and phases sum over them.
	Recovery Result

	// DiskResumed is true when the run cold-started from an on-disk
	// checkpoint (Options.Resume) instead of App.Init.
	DiskResumed bool
	// ResumedGeneration is the store generation the cold start restored
	// from (zero unless DiskResumed).
	ResumedGeneration uint64

	// Healed is true when the failed ranks were restarted and re-admitted at
	// a superstep barrier (Options.Rejoin), returning the run to full-group
	// lockstep. Healed stays true even if a later failure degraded the run
	// again.
	Healed bool
	// RejoinSuperstep is the superstep barrier the restarted ranks rejoined
	// at (zero unless Healed; the latest rejoin when there were several).
	RejoinSuperstep int64
	// DegradedSupersteps counts the supersteps executed by the surviving
	// subset while the run was degraded — the permanent continuation's
	// supersteps, or the rejoin-mode degraded windows'.
	DegradedSupersteps int64

	// Partitioned is true when the supervisor detected a network partition
	// (every live rank reported severed links and the surviving-link graph
	// split into exactly two sides) and fenced the minority side. The quorum
	// side degrades-and-continues; a heal event lets the fenced ranks rejoin.
	Partitioned bool
	// PartitionSuperstep is the superstep the partition was detected at
	// (zero unless Partitioned).
	PartitionSuperstep int64
	// PartitionMajority and PartitionMinority name the two sides of the
	// latest detected partition, sorted ascending (nil unless Partitioned).
	// The majority is the larger side; a tie breaks toward the side holding
	// the lowest rank, which owns the storage path.
	PartitionMajority []int
	PartitionMinority []int

	// SuspectRanks lists every rank the health scorer ever classified
	// suspect or worse (EWMA superstep latency over
	// Options.StragglerThreshold), sorted ascending; nil when scoring was
	// off or every rank stayed healthy.
	SuspectRanks []int
	// SoftDegraded lists the ranks demoted as confirmed stragglers, sorted
	// ascending: their vertices were reassigned to the healthy owners at a
	// checkpoint barrier, but unlike hard degradation they stayed in the
	// group as non-owning members and their failure was never recorded. A
	// rank that was later rehabilitated stays listed — the list records
	// that the demotion happened.
	SoftDegraded []int
	// SoftDegradeSuperstep is the barrier the latest soft-degrade acted at
	// (zero unless SoftDegraded is non-empty).
	SoftDegradeSuperstep int64
	// Rehabilitated lists the soft-degraded ranks restored to ownership
	// after their latency re-normalized for K consecutive supersteps,
	// sorted ascending (StragglerDemoteRehab only).
	Rehabilitated []int
	// RehabilitateSuperstep is the barrier the latest rehabilitation acted
	// at (zero unless Rehabilitated is non-empty).
	RehabilitateSuperstep int64

	// Links is the per-link traffic observed on the interconnect (message
	// and byte counts, plus wire-level retransmissions), covering every
	// epoch of the run.
	Links []comm.LinkStat
	// Integrity aggregates the wire-integrity counters across all links:
	// checksum-failed packets dropped and repaired by retransmission,
	// duplicate and stale deliveries fenced off by the sequence numbers.
	Integrity comm.IntegrityStats
}

// validAssign checks a rank assignment vector against g.
func validAssign(g *graph.CSR, assign []int32, ranks int) error {
	if len(assign) != g.NumVertices() {
		return fmt.Errorf("core: assignment covers %d vertices, graph has %d", len(assign), g.NumVertices())
	}
	for v, a := range assign {
		if int(a) < 0 || int(a) >= ranks {
			if ranks == 2 {
				return fmt.Errorf("core: vertex %d assigned to device %d (want 0 or 1)", v, a)
			}
			return fmt.Errorf("core: vertex %d assigned to device %d (want 0..%d)", v, a, ranks-1)
		}
	}
	return nil
}

// splitActiveN partitions the active vertices by owner across n ranks,
// preserving order within each rank.
func splitActiveN(active []graph.VertexID, assign []int32, n int) [][]graph.VertexID {
	out := make([][]graph.VertexID, n)
	for _, v := range active {
		r := int(assign[v])
		out[r] = append(out[r], v)
	}
	return out
}

// allRanks returns [0, n).
func allRanks(n int) []int {
	rs := make([]int, n)
	for i := range rs {
		rs[i] = i
	}
	return rs
}

// robustnessConfig is the merged robustness settings of a heterogeneous
// run: the interconnect, the checkpoint schedule, and the durable store are
// all shared between the ranks.
type robustnessConfig struct {
	timeout time.Duration
	inj     *fault.Injector
	every   int
	dir     string
	retain  int
	resume  bool
	rejoin  bool
	abort   <-chan struct{}
	// stragglerThreshold arms the per-rank health scorer; stragglerPolicy
	// decides what the supervisor does with its verdicts (see
	// Options.StragglerPolicy).
	stragglerThreshold time.Duration
	stragglerPolicy    StragglerPolicy
	// sink receives run-level events (checkpoints, failures, degradation,
	// resume); per-rank phase samples go to each option's own sink.
	sink metrics.Sink
}

// resolveFaultConfig merges the robustness settings across the rank options:
// the first non-zero/non-nil value wins (Resume and Rejoin are ORs — any
// rank asking makes the run one).
func resolveFaultConfig(opts ...Options) robustnessConfig {
	var c robustnessConfig
	for _, o := range opts {
		if c.timeout == 0 {
			c.timeout = o.ExchangeTimeout
		}
		if c.inj == nil {
			c.inj = o.Fault
		}
		if c.every == 0 {
			c.every = o.CheckpointEvery
		}
		if c.dir == "" {
			c.dir = o.CheckpointDir
		}
		if c.retain == 0 {
			c.retain = o.CheckpointRetain
		}
		c.resume = c.resume || o.Resume
		c.rejoin = c.rejoin || o.Rejoin
		if c.stragglerThreshold == 0 {
			c.stragglerThreshold = o.StragglerThreshold
		}
		if c.stragglerPolicy == StragglerOff {
			c.stragglerPolicy = o.StragglerPolicy
		}
		if c.abort == nil {
			c.abort = o.Abort
		}
		if c.sink == nil {
			c.sink = o.Metrics
		}
	}
	return c
}

// expandDeviceGroup resolves the rank options of a hetero run: either one
// Options per rank (the classic CPU+MIC pair is the 2-element case), or a
// single Options whose Devices field declares an N-rank device group — every
// rank then inherits the base options with its own device spec.
func expandDeviceGroup(opts []Options) ([]Options, error) {
	for i, o := range opts {
		if len(o.Devices) > 0 && len(opts) != 1 {
			return nil, &InvalidOptionsError{
				Field:  "Devices",
				Reason: fmt.Sprintf("option %d sets Devices in a %d-option call: a device group is declared by a single Options value", i, len(opts)),
			}
		}
	}
	if len(opts) == 1 {
		base := opts[0]
		specs := base.Devices
		if len(specs) < 2 {
			return nil, &InvalidOptionsError{
				Field:  "Devices",
				Reason: "a heterogeneous run needs at least 2 ranks: pass one Options per rank, or a single Options whose Devices lists the group",
			}
		}
		base.Devices = nil
		base.TraceLabel = ""
		out := make([]Options, len(specs))
		for r, spec := range specs {
			o := base
			o.Dev = spec
			out[r] = o
		}
		return out, nil
	}
	if len(opts) < 2 {
		return nil, &InvalidOptionsError{
			Field:  "Devices",
			Reason: "a heterogeneous run needs at least 2 ranks: pass one Options per rank, or a single Options whose Devices lists the group",
		}
	}
	return append([]Options(nil), opts...), nil
}

// resolveTraceLabels gives every rank a distinct trace/metrics device label:
// the device name when unique within the group, name#rank otherwise. A
// user-set TraceLabel always wins.
func resolveTraceLabels(opts []Options) {
	names := map[string]int{}
	for _, o := range opts {
		names[o.Dev.Name]++
	}
	for r := range opts {
		if opts[r].TraceLabel == "" && names[opts[r].Dev.Name] > 1 {
			opts[r].TraceLabel = fmt.Sprintf("%s#%d", opts[r].Dev.Name, r)
		}
	}
}

// RunF32Hetero executes app across a group of N >= 2 modeled devices. assign
// maps each vertex to its owner rank. The classic CPU+MIC pair is the
// 2-option call (rank 0 conventionally the CPU, rank 1 the MIC); arbitrary
// groups pass one Options per rank, or a single Options whose Devices field
// lists the group's specs. Vertex state is partitioned by ownership: each
// rank generates from and updates only its own vertices, so the shared
// state arrays carry no cross-rank races.
//
// With Options.CheckpointEvery > 0 (app must implement
// checkpoint.Snapshotter) the run is fault-tolerant: when ranks fail — by
// injected fault, exchange timeout, or a panic in a user function — failure
// attribution is by quorum over the survivors' verdicts, the surviving
// subset restores the last superstep-boundary checkpoint, absorbs the dead
// ranks' partitions, and finishes the run without them; the result records
// the degradation. Without checkpointing a rank failure is returned as an
// error (typically a *comm.DeviceFailedError) instead of deadlocking.
//
// With Options.Rejoin the run additionally heals: while degraded, the
// supervisor consults the fault plan for the failed ranks' recovery
// (flaky/recover events); on recovery it restarts their engines, replays
// them from a fresh checkpoint at the rejoin boundary, opens a new comm
// epoch (fencing off stale packets from before the failure), and re-admits
// them at a RejoinHandshake barrier, returning the run to full-group
// lockstep.
//
// Options.Abort, when closed, stops the run cooperatively at the next
// superstep boundary: a final checkpoint is captured when possible and the
// partial result is returned with a *RunAbortedError.
func RunF32Hetero(app AppF32, g *graph.CSR, assign []int32, deviceOpts ...Options) (HeteroResult, error) {
	if err := validateRunArgs(app, g); err != nil {
		return HeteroResult{}, err
	}
	return runGroup(app, g, assign, deviceOpts, func(opt Options, rank int, assign []int32, ep *comm.Endpoint[float32]) (device[float32], error) {
		return newDeviceF32(app, g, opt, rank, assign, ep)
	})
}

// program is what the supervisor needs of an app beyond its rank engines.
type program interface {
	Profile() machine.AppProfile
	Init(g *graph.CSR) []graph.VertexID
}

// newDevice builds one rank's engine over assign on endpoint ep.
type newDevice[T any] func(opt Options, rank int, assign []int32, ep *comm.Endpoint[T]) (device[T], error)

// runGroup validates and wires a group run — interconnect, robustness
// settings, rank engines, checkpoint coordinator, durable store, cold-start
// resume — and hands it to the supervisor.
func runGroup[T any](app program, g *graph.CSR, assign []int32, deviceOpts []Options, newDev newDevice[T]) (HeteroResult, error) {
	start := time.Now()
	opts, err := expandDeviceGroup(deviceOpts)
	if err != nil {
		return HeteroResult{}, err
	}
	n := len(opts)
	if err := validAssign(g, assign, n); err != nil {
		return HeteroResult{}, err
	}
	net, err := comm.NewGroupNet[T](machine.PCIe(), app.Profile().MsgBytes, n)
	if err != nil {
		return HeteroResult{}, err
	}
	cfg := resolveFaultConfig(opts...)
	net.SetTimeout(cfg.timeout)
	net.SetInjector(cfg.inj)
	// The merged robustness settings govern the whole run; propagate them
	// onto every option so the engines (in-phase fault injection, abort
	// checks) and per-option validation — which rejects Rejoin or a
	// straggler policy without checkpointing — see one consistent
	// configuration regardless of which option carried each knob.
	for r := range opts {
		opts[r].Fault = cfg.inj
		opts[r].ExchangeTimeout = cfg.timeout
		opts[r].CheckpointEvery = cfg.every
		opts[r].CheckpointDir = cfg.dir
		opts[r].CheckpointRetain = cfg.retain
		opts[r].Resume = cfg.resume
		opts[r].Rejoin = cfg.rejoin
		opts[r].Abort = cfg.abort
		opts[r].StragglerThreshold = cfg.stragglerThreshold
		opts[r].StragglerPolicy = cfg.stragglerPolicy
	}
	resolveTraceLabels(opts)
	h := &supervisor[T]{
		assign: assign, net: net, cfg: cfg, opts: opts, newDev: newDev,
		n: n, members: allRanks(n), downStep: map[int]int64{},
		softDown: map[int]int64{}, suspects: map[int]bool{},
		start: start, lastRejoin: -1,
	}
	devs, err := h.build(h.members, assign, true)
	if err != nil {
		return HeteroResult{}, err
	}
	h.maxIter = int64(devs[0].shared().opt.MaxIterations)
	for _, d := range devs[1:] {
		h.maxIter = min(h.maxIter, int64(d.shared().opt.MaxIterations))
	}

	// Checkpointing (in-memory or durable), resume, and rejoin all need the
	// app to snapshot/restore its state.
	if cfg.every > 0 || cfg.dir != "" {
		var ok bool
		if h.snapper, ok = app.(checkpoint.Snapshotter); !ok {
			field := "CheckpointEvery"
			if cfg.every == 0 {
				field = "CheckpointDir"
			}
			return HeteroResult{}, &InvalidOptionsError{
				Field:  field,
				Reason: fmt.Sprintf("app %T does not implement checkpoint.Snapshotter", app),
			}
		}
	}
	if cfg.dir != "" {
		h.store, err = checkpoint.OpenStore(cfg.dir, checkpoint.StoreOptions{
			Retain: cfg.retain,
			Rank:   0, // the host owns the storage path
			Fault:  cfg.inj,
		})
		if err != nil {
			return HeteroResult{}, &InvalidOptionsError{Field: "CheckpointDir", Reason: err.Error()}
		}
	}

	// Init always runs (it sizes the state arrays); a cold-start resume then
	// overwrites the freshly initialized state with the restored snapshot and
	// takes its frontiers from the checkpoint instead of Init's active set.
	actives := splitActiveN(app.Init(g), assign, n)
	var (
		resumeFrom int64
		resumedGen uint64
	)
	if cfg.resume {
		snap, gen, err := h.store.Load()
		if err != nil {
			return HeteroResult{}, &InvalidOptionsError{Field: "Resume", Reason: err.Error()}
		}
		if err := h.snapper.Restore(snap.State); err != nil {
			return HeteroResult{}, fmt.Errorf("core: resume from %s gen %d: %w", cfg.dir, gen, err)
		}
		// Re-split the merged frontier by the run's own assignment: the
		// snapshot may have been captured by a differently-sized group (or
		// under a degraded re-partition), and ownership is what the engines
		// assume.
		actives = splitActiveN(snap.MergedFrontier(), assign, n)
		resumeFrom = snap.Superstep
		resumedGen = gen
		emitEvent(cfg.sink, metrics.Event{
			Kind: metrics.EventResume, Rank: -1, Superstep: resumeFrom,
			Detail: fmt.Sprintf("cold start from %s generation %d", cfg.dir, gen),
		})
	}

	if cfg.every > 0 {
		h.coord, err = checkpoint.NewGroupCoordinator(h.snapper, n, cfg.every, cfg.timeout)
		if err != nil {
			return HeteroResult{}, err
		}
		h.coord.SetStore(h.store)
		h.coord.SetSink(cfg.sink)
		// Superstep-0 snapshot (or the restored superstep's, on resume),
		// taken before the rank loops start: recovery is possible from any
		// point of the run, including a failure in the very first superstep.
		if err := h.coord.InitialAt(resumeFrom, actives...); err != nil {
			return HeteroResult{}, err
		}
	}

	if cfg.stragglerThreshold > 0 {
		h.health = newHealthScorer(n, cfg.stragglerThreshold)
	}
	h.res.Dev = make([]Result, n)
	h.res.FailedRank = -1
	h.res.FailedSuperstep = -1
	h.res.DiskResumed = cfg.resume
	h.res.ResumedGeneration = resumedGen
	h.res.ResumedSuperstep = resumeFrom
	var handshake func(*comm.Endpoint[T]) error
	if cfg.resume {
		handshake = func(ep *comm.Endpoint[T]) error {
			// All ranks must have restored the same store generation, and
			// from here on exchange rounds (and the fault plan's step
			// indices) count absolute supersteps.
			if _, err := ep.ResumeHandshake(resumedGen); err != nil {
				return err
			}
			ep.SetStep(resumeFrom)
			return nil
		}
	}
	return h.run(devs, actives, resumeFrom, handshake)
}

// supervisor runs one group: it drives lockstep segments, attributes
// failures by quorum, degrades to the surviving subset (down to a lone
// survivor, which is a 1-member group), and (with Options.Rejoin) heals the
// run by restarting the failed ranks and re-admitting them at a superstep
// barrier under a new comm epoch.
type supervisor[T any] struct {
	assign  []int32
	net     *comm.Net[T]
	cfg     robustnessConfig
	opts    []Options
	newDev  newDevice[T]
	snapper checkpoint.Snapshotter
	coord   *checkpoint.Coordinator
	store   *checkpoint.Store
	maxIter int64
	start   time.Time

	n        int
	members  []int         // live owning ranks, ascending
	downStep map[int]int64 // failure superstep per down rank
	// Gray-failure state: health scores per-rank superstep latency when
	// Options.StragglerThreshold is set (nil otherwise); softDown maps each
	// soft-degraded rank to its demotion superstep — such ranks are alive
	// (never in downStep) but own no vertices; suspects accumulates every
	// rank the scorer ever classified suspect or worse.
	health   *healthScorer
	softDown map[int]int64
	suspects map[int]bool

	res  HeteroResult
	exec float64 // accumulated compute seconds (lockstep maxes + degraded segments)
	// lastRejoin guards rejoin progress: a new rejoin only happens at a
	// strictly later superstep, so a deterministically failing rejoin cannot
	// loop forever (at least one degraded superstep separates attempts,
	// bounded by maxIter).
	lastRejoin int64
	// segRec collects per-rank results of a degraded segment; folded into
	// res.Recovery when the segment ends. recBase is the Recovery
	// superstep count at segment start (trace indexing).
	segRec  []Result
	recBase int64
}

// build constructs fresh engines for ranks over assign, on the current
// comm epoch's endpoints. Unarmed engines run without the fault injector:
// a degraded segment replays checkpointed supersteps, and re-firing the
// plan's events against it would kill recovery.
func (h *supervisor[T]) build(ranks []int, assign []int32, armed bool) ([]device[T], error) {
	devs := make([]device[T], h.n)
	for _, r := range ranks {
		ep, err := h.net.Endpoint(r)
		if err != nil {
			return nil, err
		}
		opt := h.opts[r]
		if !armed {
			opt.Fault = nil
		}
		if devs[r], err = h.newDev(opt, r, assign, ep); err != nil {
			return nil, err
		}
	}
	return devs, nil
}

// down returns the currently failed ranks, sorted ascending.
func (h *supervisor[T]) down() []int {
	var d []int
	for r := range h.downStep {
		d = append(d, r)
	}
	sort.Ints(d)
	return d
}

// softRanks returns the currently soft-degraded ranks, sorted ascending.
func (h *supervisor[T]) softRanks() []int {
	var d []int
	for r := range h.softDown {
		d = append(d, r)
	}
	sort.Ints(d)
	return d
}

// recomputeMembers rebuilds the owning membership: every rank that is
// neither dead nor soft-degraded, ascending.
func (h *supervisor[T]) recomputeMembers() {
	h.members = nil
	for r := 0; r < h.n; r++ {
		if _, dead := h.downStep[r]; dead {
			continue
		}
		if _, soft := h.softDown[r]; soft {
			continue
		}
		h.members = append(h.members, r)
	}
}

// ownerAssign returns the effective vertex-ownership vector: h.assign with
// every vertex of a dead or soft-degraded rank reassigned round-robin to the
// current owning members. At full ownership it is h.assign itself.
func (h *supervisor[T]) ownerAssign() []int32 {
	if len(h.downStep) == 0 && len(h.softDown) == 0 {
		return h.assign
	}
	sub := make([]int32, len(h.assign))
	for v, a := range h.assign {
		_, dead := h.downStep[int(a)]
		_, soft := h.softDown[int(a)]
		if dead || soft {
			sub[v] = int32(h.members[v%len(h.members)])
		} else {
			sub[v] = a
		}
	}
	return sub
}

// nextBarrier returns the first checkpoint-cadence boundary strictly after
// `from` — where the supervisor examines health verdicts under an active
// straggler policy (cfg.every > 0 is validated up front).
func (h *supervisor[T]) nextBarrier(from int64) int64 {
	every := int64(h.cfg.every)
	return (from/every + 1) * every
}

// observeHealth folds a clean segment's charged per-rank superstep times
// into the health scorer, surfacing state transitions as events and the
// current classification as gauges.
func (h *supervisor[T]) observeHealth(seg segmentOutcome, from int64) {
	if h.health == nil {
		return
	}
	for _, r := range h.members {
		for i, ns := range seg.healthNS[r] {
			prev, now := h.health.Observe(r, float64(ns)/1e9)
			if now == prev {
				continue
			}
			step := from + int64(i)
			switch now {
			case rankSuspect:
				h.suspects[r] = true
				emitEvent(h.cfg.sink, metrics.Event{
					Kind: metrics.EventRankSuspect, Rank: r, Superstep: step,
					Detail: fmt.Sprintf("rank %d EWMA superstep time %.3fms over threshold %.3fms", r, h.health.EWMA(r)*1e3, h.cfg.stragglerThreshold.Seconds()*1e3),
				})
			case rankStraggler:
				h.suspects[r] = true
				emitEvent(h.cfg.sink, metrics.Event{
					Kind: metrics.EventRankStraggler, Rank: r, Superstep: step,
					Detail: fmt.Sprintf("rank %d confirmed straggler: EWMA %.3fms over threshold for %d consecutive supersteps", r, h.health.EWMA(r)*1e3, stragglerConfirmSupersteps),
				})
			}
		}
	}
	h.recordHealthGauges()
}

// confirmedStragglers returns the owning ranks the scorer has confirmed as
// stragglers and the active policy allows demoting — never the whole
// membership, since someone has to own the vertices.
func (h *supervisor[T]) confirmedStragglers() []int {
	if h.health == nil || h.cfg.stragglerPolicy == StragglerOff {
		return nil
	}
	var out []int
	for _, r := range h.members {
		if h.health.State(r) == rankStraggler {
			out = append(out, r)
		}
	}
	if len(out) == 0 || len(out) >= len(h.members) {
		return nil
	}
	return out
}

// rehabReady feeds the demoted ranks' heartbeats over the executed window
// [from, endStep) into the scorer — a demoted rank is not running, so its
// heartbeat latency signal is the fault plan's stall for each superstep —
// and reports whether every soft-degraded rank has stayed normal long
// enough to rehabilitate. Partial returns are not attempted: the group
// restores to full membership in one barrier.
func (h *supervisor[T]) rehabReady(from, endStep int64) bool {
	if h.cfg.stragglerPolicy != StragglerDemoteRehab || len(h.softDown) == 0 {
		return false
	}
	for r := range h.softDown {
		for s := from; s < endStep; s++ {
			h.health.Probe(r, h.cfg.inj.Slow(r, s) == 0)
		}
	}
	for r := range h.softDown {
		if !h.health.Rehabilitatable(r) {
			return false
		}
	}
	return true
}

// recordHealthGauges exports each rank's health classification and EWMA
// superstep latency as live gauges (hetgraph_rank_health_<r>: 0 healthy,
// 1 suspect, 2 straggler; hetgraph_rank_ewma_ns_<r>).
func (h *supervisor[T]) recordHealthGauges() {
	if h.health == nil {
		return
	}
	gr, ok := h.cfg.sink.(metrics.GaugeRecorder)
	if !ok {
		return
	}
	for r := 0; r < h.n; r++ {
		gr.SetGauge(fmt.Sprintf("rank_health_%d", r), int64(h.health.State(r)))
		gr.SetGauge(fmt.Sprintf("rank_ewma_ns_%d", r), int64(h.health.EWMA(r)*1e9))
	}
}

// softDegrade demotes confirmed stragglers at the superstep barrier `step`:
// their vertices are reassigned round-robin to the healthy owners (the same
// re-partition machinery as hard degradation), but unlike a hard degrade
// the demoted ranks stay in the group as non-owning members — no failure is
// recorded, they keep heartbeating through the fault plan, and (policy
// demote-rehab) they are rehabilitated once their latency re-normalizes.
// The fault injector stays armed: the demoted stretch runs forward from the
// barrier, not a checkpoint replay, so the plan's remaining events must
// still fire.
func (h *supervisor[T]) softDegrade(stragglers []int, step int64, frontier []graph.VertexID) ([]device[T], func(*comm.Endpoint[T]) error, error) {
	for _, s := range stragglers {
		h.softDown[s] = step
	}
	h.recomputeMembers()
	// Anchor the demotion at a durable barrier: the demoted stretch stays
	// recoverable, and rehabilitation replays from a descendant of this
	// snapshot.
	if err := h.coord.InitialAt(step, splitActiveN(frontier, h.assign, h.n)...); err != nil {
		return nil, nil, fmt.Errorf("soft-degrade checkpoint at superstep %d: %w", step, err)
	}
	h.net.NewEpoch()
	h.net.SetMembers(h.members)
	h.coord.Reopen()
	h.coord.SetMembers(h.members)
	devs, err := h.build(h.members, h.ownerAssign(), true)
	if err != nil {
		return nil, nil, fmt.Errorf("soft-degrade engine restart: %w", err)
	}
	for _, s := range stragglers {
		emitEvent(h.cfg.sink, metrics.Event{
			Kind: metrics.EventSoftDegraded, Rank: s, Superstep: step,
			Detail: fmt.Sprintf("rank %d demoted at superstep %d: vertices reassigned to ranks %v, rank stays a non-owning member", s, step, h.members),
		})
		if !containsInt(h.res.SoftDegraded, s) {
			h.res.SoftDegraded = append(h.res.SoftDegraded, s)
		}
	}
	sort.Ints(h.res.SoftDegraded)
	h.res.SoftDegradeSuperstep = step
	h.recordHealthGauges()
	return devs, resumeAt[T](step), nil
}

// resumeAt is the handshake of a segment that restarts at superstep step
// on the current epoch: exchange rounds (and the fault plan's step indices)
// continue from there.
func resumeAt[T any](step int64) func(*comm.Endpoint[T]) error {
	return func(ep *comm.Endpoint[T]) error {
		ep.SetStep(step)
		return nil
	}
}

// containsInt reports whether xs contains x.
func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// storeFailure turns a failed durable commit into the run-aborting error
// (nil for any other error). A failed commit is not a device failure: the
// storage path is shared, so degrading would keep hitting the same broken
// disk. It is treated like a process crash — the previously committed
// generations are intact and a restart with Options.Resume picks the run
// back up.
func (h *supervisor[T]) storeFailure(rank int, err error) error {
	var serr *checkpoint.StoreError
	if !errors.As(err, &serr) {
		return nil
	}
	aerr := fmt.Errorf("core: run aborted, durable checkpoint store failed (restart with Options.Resume to recover): %w", err)
	emitEvent(h.cfg.sink, metrics.Event{Kind: metrics.EventRunAborted, Rank: rank, Superstep: -1, Detail: aerr.Error()})
	return aerr
}

// merged concatenates the members' frontiers.
func (h *supervisor[T]) merged(frontier [][]graph.VertexID) []graph.VertexID {
	var m []graph.VertexID
	for _, r := range h.members {
		m = append(m, frontier[r]...)
	}
	return m
}

// run is the supervisor loop: lockstep segments over the live membership,
// separated by quorum failure attribution, degraded continuation on the
// surviving subset, and (in rejoin mode) heals back to full membership.
func (h *supervisor[T]) run(devs []device[T], actives [][]graph.VertexID, from int64, handshake func(*comm.Endpoint[T]) error) (HeteroResult, error) {
	for {
		// A soft-degraded run (stragglers demoted, membership reduced but no
		// rank dead) is NOT degraded in the hard sense: it keeps recording
		// into the per-rank Dev results and never replays checkpoints.
		degraded := len(h.downStep) > 0
		lead := h.members[0]
		until := h.maxIter
		healable := false
		if degraded {
			if heal, ok := h.healStep(from); ok && heal < h.maxIter {
				until = heal
				healable = true
			}
			h.segRec = make([]Result, h.n)
			h.recBase = h.res.Recovery.Iterations
		} else if h.cfg.stragglerPolicy != StragglerOff && h.health != nil {
			// Bound the segment at the next checkpoint barrier: demotion and
			// rehabilitation both act at barriers, so health verdicts must be
			// examined there rather than once at the end of the run.
			until = min(until, h.nextBarrier(from))
		}
		seg := h.runSegment(devs, actives, from, until, handshake, degraded)
		handshake = nil

		// Cooperative abort: a rank saw Options.Abort closed at a superstep
		// boundary (the peers usually exit with collateral peer-death
		// errors, which the abort takes precedence over).
		if step, ok := segmentAbortStep(seg, h.members); ok {
			if degraded {
				h.foldDegraded(seg, lead)
			} else {
				h.exec += lockstepSeconds(seg.iterTimes, lead, len(seg.iterTimes[lead]))
			}
			// Best-effort final checkpoint: only when every live rank stopped
			// at the same boundary is the shared state a consistent snapshot.
			same := true
			for _, r := range h.members {
				if seg.abortStep[r] != step {
					same = false
				}
			}
			if h.coord != nil && same {
				_ = h.coord.InitialAt(step, seg.frontier...)
			}
			detail := fmt.Sprintf("cooperative abort at superstep boundary %d", step)
			if degraded {
				detail = fmt.Sprintf("cooperative abort during degraded window at superstep %d", step)
				h.res.Degraded = true
			}
			emitEvent(h.cfg.sink, metrics.Event{
				Kind: metrics.EventRunAborted, Rank: -1, Superstep: step,
				Detail: detail,
			})
			h.res.Iterations = step
			return h.finalize(), &RunAbortedError{Superstep: step}
		}

		clean := true
		for _, r := range h.members {
			if seg.runErr[r] != nil {
				clean = false
			}
		}
		if clean && !degraded {
			// Clean segment end: convergence, maxIter, or a
			// straggler-policy checkpoint barrier.
			h.exec += lockstepSeconds(seg.iterTimes, lead, len(seg.iterTimes[lead]))
			endStep := from + seg.iters[lead]
			h.observeHealth(seg, from)
			conv := true
			for _, r := range h.members {
				if !h.res.Dev[r].Converged {
					conv = false
				}
			}
			if conv || endStep >= h.maxIter {
				h.res.Iterations = endStep
				h.res.Converged = conv
				return h.finalize(), nil
			}
			// The segment stopped at a straggler-policy barrier: act on
			// the scorer's verdicts, then continue lockstep.
			merged := h.merged(seg.frontier)
			actives = seg.frontier
			if sl := h.confirmedStragglers(); len(sl) > 0 {
				devs2, hs, err := h.softDegrade(sl, endStep, merged)
				if err != nil {
					if aerr := h.storeFailure(0, err); aerr != nil {
						return HeteroResult{}, aerr
					}
					return HeteroResult{}, fmt.Errorf("core: soft-degrade at superstep %d failed: %w", endStep, err)
				}
				devs, handshake = devs2, hs
				actives = splitActiveN(merged, h.ownerAssign(), h.n)
			} else if h.rehabReady(from, endStep) {
				devs2, hs, err := h.rehabilitate(endStep, merged)
				if err != nil {
					if aerr := h.storeFailure(0, err); aerr != nil {
						return HeteroResult{}, aerr
					}
					// Carry on soft-degraded; the next barrier retries.
					for _, s := range h.softRanks() {
						emitEvent(h.cfg.sink, metrics.Event{
							Kind: metrics.EventRejoinFailed, Rank: s, Superstep: endStep,
							Detail: fmt.Sprintf("rehabilitation failed: %v", err),
						})
					}
				} else {
					devs, handshake = devs2, hs
					actives = splitActiveN(merged, h.assign, h.n)
				}
			}
			from = endStep
			continue
		}
		if clean {
			executed := seg.iters[lead]
			conv := h.foldDegraded(seg, lead)
			endStep := from + executed
			if !healable || conv || endStep != until {
				h.res.Degraded = true
				h.res.Iterations = endStep
				h.res.Converged = conv
				return h.finalize(), nil
			}
			// The fault plan declares every down rank recovered at this
			// boundary: heal back to full membership.
			merged := h.merged(seg.frontier)
			devs2, hs, err := h.rejoin(endStep, merged)
			if err != nil {
				if aerr := h.storeFailure(0, err); aerr != nil {
					return HeteroResult{}, aerr
				}
				for _, c := range h.down() {
					emitEvent(h.cfg.sink, metrics.Event{
						Kind: metrics.EventRejoinFailed, Rank: c, Superstep: endStep,
						Detail: err.Error(),
					})
				}
				// Carry on degraded; the lastRejoin guard retries at the
				// next superstep at the earliest.
				h.lastRejoin = endStep
				actives, from = seg.frontier, endStep
				continue
			}
			devs, handshake = devs2, hs
			actives, from = splitActiveN(merged, h.assign, h.n), endStep
			continue
		}

		for _, r := range h.members {
			if aerr := h.storeFailure(r, seg.runErr[r]); aerr != nil {
				return HeteroResult{}, aerr
			}
		}

		// Attribute the failure by quorum over the live ranks' verdicts: a
		// *comm.DeviceFailedError carries an explicit accusation (a rank that
		// suffered an injected fault blames itself; a rank whose peer
		// vanished blames the peer); a checkpoint barrier broken by peer
		// death cannot name the peer in a group, so it abstains (with two
		// live ranks the peer is unambiguous); anything else — a recovered
		// panic in a user function, a scheduler error — is a self-conviction.
		// A self-conviction always convicts; an external accusation convicts
		// on a majority of the cast votes.
		//
		// Split-brain comes first: when every live rank reports severed links
		// and the topology forms exactly two islands, no rank failed — the
		// interconnect did. The quorum side fences the minority and continues
		// degraded; the minority is convicted wholesale with a typed
		// PartitionedError naming both sides.
		var (
			convicted []int
			firstErr  error
		)
		partStep := int64(-1)
		if maj, minr, pstep, ok := severedPartition(h.members, seg.runErr); ok {
			convicted = minr
			partStep = pstep
			firstErr = &comm.PartitionedError{Superstep: pstep, Majority: maj, Minority: minr}
			h.res.Partitioned = true
			h.res.PartitionSuperstep = pstep
			h.res.PartitionMajority = append([]int(nil), maj...)
			h.res.PartitionMinority = append([]int(nil), minr...)
			emitEvent(h.cfg.sink, metrics.Event{
				Kind: metrics.EventPartitioned, Rank: -1, Superstep: pstep,
				Detail: firstErr.Error(),
			})
		} else {
			convicted, firstErr = h.quorumBlame(seg)
		}
		if len(convicted) == 0 || len(convicted) == len(h.members) {
			var err error
			if h.n == 2 && !degraded {
				err = fmt.Errorf("core: both devices failed, cannot degrade: rank 0: %v; rank 1: %v", seg.runErr[0], seg.runErr[1])
			} else {
				msg := "core: cannot attribute failure, aborting:"
				for _, r := range h.members {
					if seg.runErr[r] != nil {
						msg += fmt.Sprintf(" rank %d: %v;", r, seg.runErr[r])
					}
				}
				err = errors.New(msg[:len(msg)-1])
			}
			emitEvent(h.cfg.sink, metrics.Event{Kind: metrics.EventRunAborted, Rank: -1, Superstep: -1, Detail: err.Error()})
			return HeteroResult{}, err
		}
		stepOf := func(c int) int64 {
			if partStep >= 0 {
				return partStep
			}
			for _, r := range h.members {
				var dfe *comm.DeviceFailedError
				if errors.As(seg.runErr[r], &dfe) && dfe.Rank == c {
					return dfe.Superstep
				}
			}
			return -1
		}
		// A fenced minority did not fail — the partition event above covers
		// it; only genuine device convictions get a device-failed event.
		if partStep < 0 {
			for _, c := range convicted {
				emitEvent(h.cfg.sink, metrics.Event{
					Kind: metrics.EventDeviceFailed, Rank: c, Superstep: stepOf(c),
					Detail: firstErr.Error(),
				})
			}
		}
		if h.coord == nil {
			return HeteroResult{}, firstErr
		}
		snap, err := h.coord.Restore()
		if err != nil {
			return HeteroResult{}, fmt.Errorf("core: device failure (%v) and recovery failed: %w", firstErr, err)
		}
		// Simulated time: lockstep maxes up to the restored checkpoint (work
		// past it was recomputed and is not double-counted; iterTimes index
		// supersteps relative to the segment's start).
		h.exec += lockstepSeconds(seg.iterTimes, lead, int(snap.Superstep-from))

		for _, c := range convicted {
			h.downStep[c] = stepOf(c)
		}
		h.recomputeMembers()
		h.res.FailedRank = convicted[0]
		h.res.FailedSuperstep = stepOf(convicted[0])
		h.res.ResumedSuperstep = snap.Superstep
		h.res.FailedRanks = h.down()

		// Re-partition the dead (and soft-degraded) ranks' vertices across
		// the survivors and continue lockstep among them — a lone survivor
		// is simply a 1-member group whose exchanges have no peers. The
		// injector is suspended while degraded and re-armed on heal.
		subAssign := h.ownerAssign()
		h.net.NewEpoch()
		h.net.SetMembers(h.members)
		h.net.SetInjector(nil)
		h.coord.Reopen()
		h.coord.SetMembers(h.members)
		devs, err = h.build(h.members, subAssign, false)
		if err != nil {
			return HeteroResult{}, fmt.Errorf("core: device failure (%v) and recovery engine failed: %w", firstErr, err)
		}
		emitEvent(h.cfg.sink, metrics.Event{
			Kind: metrics.EventDegraded, Rank: h.res.FailedRank, Superstep: snap.Superstep,
			Detail: fmt.Sprintf("ranks %v survive; restored checkpointed superstep %d, continuing %d-device", h.members, snap.Superstep, len(h.members)),
		})
		actives = splitActiveN(snap.MergedFrontier(), subAssign, h.n)
		from = snap.Superstep
		handshake = resumeAt[T](from)
	}
}

// severedPartition inspects the live ranks' errors for a clean network
// partition: every rank must have failed with a *comm.LinkSeveredError, and
// the surviving-link graph those verdicts describe must have exactly two
// connected components. majority is the larger side (a tie breaks toward the
// side holding the lowest live rank — rank 0 owns the storage path); step is
// the earliest superstep a severed link was reported at. ok is false when
// the errors describe anything else (a partial link failure, a mix of link
// and device faults, more than two islands), which falls back to per-rank
// quorum attribution.
func severedPartition(members []int, runErr []error) (majority, minority []int, step int64, ok bool) {
	step = -1
	severed := map[int]map[int]bool{}
	for _, r := range members {
		var lse *comm.LinkSeveredError
		if !errors.As(runErr[r], &lse) {
			return nil, nil, 0, false
		}
		cut := map[int]bool{}
		for _, p := range lse.Peers {
			cut[p] = true
		}
		severed[r] = cut
		if step < 0 || lse.Superstep < step {
			step = lse.Superstep
		}
	}
	// Connected components of the surviving-link graph over the live ranks
	// (a link survives only if neither endpoint reported it cut).
	comp := map[int]bool{}
	var comps [][]int
	for _, r := range members {
		if comp[r] {
			continue
		}
		comp[r] = true
		queue := []int{r}
		var c []int
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			c = append(c, v)
			for _, w := range members {
				if comp[w] || severed[v][w] || severed[w][v] {
					continue
				}
				comp[w] = true
				queue = append(queue, w)
			}
		}
		sort.Ints(c)
		comps = append(comps, c)
	}
	if len(comps) != 2 {
		return nil, nil, 0, false
	}
	// comps[0] holds the lowest live rank, so on a tie it stays the majority.
	majority, minority = comps[0], comps[1]
	if len(minority) > len(majority) {
		majority, minority = minority, majority
	}
	return majority, minority, step, true
}

// quorumBlame resolves which live ranks the segment's errors convict. It
// returns the convicted ranks (sorted) and the first error observed.
func (h *supervisor[T]) quorumBlame(seg segmentOutcome) ([]int, error) {
	votes := map[int]int{}
	self := map[int]bool{}
	voters := 0
	var firstErr error
	live := map[int]bool{}
	for _, r := range h.members {
		live[r] = true
	}
	for _, r := range h.members {
		err := seg.runErr[r]
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		var dfe *comm.DeviceFailedError
		var lse *comm.LinkSeveredError
		switch {
		case errors.As(err, &dfe):
			voters++
			if dfe.Rank == r {
				self[r] = true
			} else if live[dfe.Rank] {
				votes[dfe.Rank]++
			}
		case errors.As(err, &lse):
			// A severed-link verdict names the peers this rank lost, not a
			// culprit. When the topology is not a clean two-sided partition
			// (severedPartition already handled that), count each lost live
			// peer as accused — an asymmetric link failure then resolves
			// like a peer death.
			voters++
			for _, p := range lse.Peers {
				if live[p] && p != r {
					votes[p]++
				}
			}
		case errors.Is(err, checkpoint.ErrPeerDead):
			// The barrier broke because a peer died, but the coordinator
			// cannot name it; with exactly two live ranks the peer is
			// unambiguous, otherwise abstain.
			if len(h.members) == 2 {
				voters++
				peer := h.members[0] + h.members[1] - r
				votes[peer]++
			}
		default:
			voters++
			self[r] = true
		}
	}
	majority := voters/2 + 1
	var convicted []int
	for _, r := range h.members {
		if self[r] || votes[r] >= majority {
			convicted = append(convicted, r)
		}
	}
	return convicted, firstErr
}

// healStep computes the earliest superstep boundary at which every down rank
// is declared recovered by the fault plan (the max of the per-rank recovery
// steps). ok is false when any down rank never recovers.
func (h *supervisor[T]) healStep(from int64) (int64, bool) {
	if !h.cfg.rejoin || len(h.downStep) == 0 {
		return 0, false
	}
	heal := int64(-1)
	for c, failedStep := range h.downStep {
		s := h.cfg.inj.RecoverStep(c, failedStep)
		if s < 0 {
			return 0, false
		}
		if s > heal {
			heal = s
		}
	}
	if heal <= h.lastRejoin {
		heal = h.lastRejoin + 1
	}
	if heal < from {
		heal = from
	}
	return heal, true
}

// foldDegraded accumulates a degraded segment's per-rank
// scratch results into res.Recovery, advances the degraded counters, and
// reports whether the segment converged.
func (h *supervisor[T]) foldDegraded(seg segmentOutcome, lead int) bool {
	executed := seg.iters[lead]
	conv := false
	for _, r := range h.members {
		h.res.Recovery.Counters.Add(h.segRec[r].Counters)
		h.res.Recovery.Phases.Add(h.segRec[r].Phases)
		if h.segRec[r].Converged {
			conv = true
		}
	}
	h.res.Recovery.Iterations += executed
	h.res.Recovery.SimSeconds = h.res.Recovery.Phases.Total()
	if conv {
		h.res.Recovery.Converged = true
	}
	h.res.DegradedSupersteps += executed
	if len(h.members) == 1 {
		// A lone survivor has no lockstep max to take: its compute is its
		// own phase totals, summed the way a single-device Result is.
		p := h.segRec[lead].Phases
		h.exec += p.Generate + p.Process + p.Update
	} else {
		h.exec += lockstepSeconds(seg.iterTimes, lead, int(executed))
	}
	return conv
}

// restoreFullMembership re-admits every rank at superstep `step`: it
// captures a fresh checkpoint at the boundary, replays the restarted
// engines from it (state is partitioned by ownership, so the restored arrays
// carry exactly the supersteps the returning ranks missed), opens a new comm
// epoch so packets from before the membership change are fenced off,
// restores full membership on the interconnect and the checkpoint barrier,
// re-arms the fault injector, and rebuilds every rank engine against the
// original assignment. The returned handshake runs RejoinHandshake on each
// rank before the next segment. Shared by rejoin (dead ranks healing) and
// rehabilitate (soft-degraded stragglers returning).
func (h *supervisor[T]) restoreFullMembership(step int64, frontier []graph.VertexID) (devs []device[T], handshake func(*comm.Endpoint[T]) error, gen uint64, epoch uint64, err error) {
	if err := h.coord.InitialAt(step, splitActiveN(frontier, h.assign, h.n)...); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("rejoin checkpoint at superstep %d: %w", step, err)
	}
	// The replay: the restarted ranks load the boundary snapshot. The arrays
	// are shared in-process, so this also re-verifies the snapshot decodes.
	snap := h.coord.Latest()
	if err := h.snapper.Restore(snap.State); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("rejoin replay at superstep %d: %w", step, err)
	}
	if h.store != nil {
		if gens := h.store.Generations(); len(gens) > 0 {
			gen = gens[0].Gen
		}
	}
	epoch = h.net.NewEpoch()
	h.net.SetMembers(allRanks(h.n))
	h.net.SetInjector(h.cfg.inj)
	h.coord.Reopen()
	h.coord.SetMembers(allRanks(h.n))
	if devs, err = h.build(allRanks(h.n), h.assign, true); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("rejoin engine restart: %w", err)
	}
	handshake = func(ep *comm.Endpoint[T]) error {
		if err := ep.RejoinHandshake(epoch, gen, step); err != nil {
			return err
		}
		ep.SetStep(step)
		return nil
	}
	return devs, handshake, gen, epoch, nil
}

// rejoin restarts the down ranks for re-admission at superstep `step`,
// returning the run to full-group lockstep.
func (h *supervisor[T]) rejoin(step int64, frontier []graph.VertexID) ([]device[T], func(*comm.Endpoint[T]) error, error) {
	devs, handshake, gen, epoch, err := h.restoreFullMembership(step, frontier)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range h.down() {
		emitEvent(h.cfg.sink, metrics.Event{
			Kind: metrics.EventRejoined, Rank: c, Superstep: step,
			Detail: fmt.Sprintf("rank %d restarted from generation %d, rejoined at superstep %d (epoch %d)", c, gen, step, epoch),
		})
	}
	h.res.Healed = true
	h.res.RejoinSuperstep = step
	h.res.FailedRanks = nil
	h.lastRejoin = step
	h.downStep = map[int]int64{}
	// A heal restores the whole group, soft-demotions included: re-admitting
	// a still-on-probation rank here keeps the membership invariant (owners
	// + down + soft-degraded = all ranks) simple, and the scorer will simply
	// re-demote it if it is still slow.
	for s := range h.softDown {
		delete(h.softDown, s)
		if h.health != nil {
			h.health.Reset(s)
		}
	}
	h.recomputeMembers()
	return devs, handshake, nil
}

// rehabilitate restores the soft-degraded ranks to ownership at superstep
// `step` after their latency re-normalized: the same replay machinery as
// rejoin, but the outcome is recorded as a rehabilitation — the ranks never
// failed, so Healed and FailedRanks stay untouched.
func (h *supervisor[T]) rehabilitate(step int64, frontier []graph.VertexID) ([]device[T], func(*comm.Endpoint[T]) error, error) {
	ranks := h.softRanks()
	devs, handshake, gen, epoch, err := h.restoreFullMembership(step, frontier)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range ranks {
		emitEvent(h.cfg.sink, metrics.Event{
			Kind: metrics.EventRehabilitated, Rank: s, Superstep: step,
			Detail: fmt.Sprintf("rank %d latency re-normalized for %d supersteps; restored from generation %d at superstep %d (epoch %d)", s, rehabilitateSupersteps, gen, step, epoch),
		})
		if !containsInt(h.res.Rehabilitated, s) {
			h.res.Rehabilitated = append(h.res.Rehabilitated, s)
		}
		h.health.Reset(s)
	}
	sort.Ints(h.res.Rehabilitated)
	h.res.RehabilitateSuperstep = step
	h.lastRejoin = step
	h.softDown = map[int]int64{}
	h.recomputeMembers()
	h.recordHealthGauges()
	return devs, handshake, nil
}

// recordLinks pushes the interconnect's per-link traffic and integrity
// totals into the sink if it opts in via metrics.LinkRecorder; the base
// two-method Sink contract is untouched.
func recordLinks(sink metrics.Sink, links []comm.LinkStat, integ comm.IntegrityStats) {
	lr, ok := sink.(metrics.LinkRecorder)
	if !ok {
		return
	}
	la := make([]metrics.LinkActivity, len(links))
	for i, l := range links {
		la[i] = metrics.LinkActivity{
			From: l.From, To: l.To,
			Msgs: l.Msgs, Bytes: l.Bytes, Retransmits: l.Retransmits,
		}
	}
	lr.RecordLinks(la, metrics.IntegritySnapshot{
		CorruptDrops: integ.CorruptDrops,
		DupDrops:     integ.DupDrops,
		StaleDrops:   integ.StaleDrops,
		Retransmits:  integ.Retransmits,
	})
}

// finalize stamps the run-level times and the interconnect's link/integrity
// record into the accumulated result.
func (h *supervisor[T]) finalize() HeteroResult {
	for r := range h.suspects {
		h.res.SuspectRanks = append(h.res.SuspectRanks, r)
	}
	sort.Ints(h.res.SuspectRanks)
	h.res.Links = h.net.LinkStats()
	h.res.Integrity = h.net.Integrity()
	recordLinks(h.cfg.sink, h.res.Links, h.res.Integrity)
	h.res.ExecSeconds = h.exec
	// Communication time is identical on every side (full-duplex model), so
	// take rank 0's.
	h.res.CommSeconds = h.res.Dev[0].Phases.Exchange
	h.res.SimSeconds = h.res.ExecSeconds + h.res.CommSeconds
	h.res.WallSeconds = time.Since(h.start).Seconds()
	return h.res
}
