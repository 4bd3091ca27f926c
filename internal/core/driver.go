package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hetgraph/internal/comm"
	"hetgraph/internal/fault"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/metrics"
	"hetgraph/internal/pipeline"
	"hetgraph/internal/trace"
)

// device is one rank's engine as the superstep driver sees it: the float32
// engine (*deviceF32) or the structured-message engine (*deviceGeneric[T]).
// The driver dispatches through it once per superstep; the per-message
// paths inside a superstep body stay concrete.
type device[T any] interface {
	// superstep runs one BSP superstep on this rank's active set:
	// generate → exchange → process → update.
	superstep(active []graph.VertexID) (stepOutcome, error)
	// shared returns the rank state the driver reads and stamps.
	shared() *engine[T]
}

// stepOutcome is one rank's superstep as the driver records it.
type stepOutcome struct {
	next []graph.VertexID
	c    machine.Counters
	pt   PhaseTimes
	// dir labels the superstep's traversal direction on its samples.
	dir string
	// converged reports that the superstep's active-count allreduce found
	// no vertex active anywhere in the group: the run ends with it.
	converged bool
	// probe marks a convergence-detection superstep that stopped after the
	// exchange (float32 engine): it is recorded, but not traced and not
	// charged to lockstep time, health samples or checkpoints.
	probe bool
}

// engine is the per-rank state both device types share with the driver.
// For single-device runs assign is nil; for group runs it maps each vertex
// to its owner rank and ep connects to the peer devices.
type engine[T any] struct {
	opt    Options
	cm     machine.CostModel
	rank   int
	assign []int32
	ep     *comm.Endpoint[T]
	// fixed caches IsFixedActive(app): the initial active set reruns every
	// superstep and an empty frontier never ends the run.
	fixed bool
	// step is the current superstep, used to index injected faults. Note
	// the generic engine performs two exchange rounds per superstep, so
	// fault-plan steps that target the exchange count rounds, not
	// supersteps (see docs/robustness.md).
	step int64
	// wall holds the current superstep's measured wall-clock phase
	// durations; written only when opt.Metrics is non-nil (exchange is the
	// exception: comm measures it regardless, the copy here is free).
	wall phaseWallNS

	remoteMu sync.Mutex
	remCount atomic.Int64

	fillScratch []int32
	pipe        *pipeline.Pipelined[T]
}

// init resolves and validates opt and builds the state shared by both
// device types.
func (e *engine[T]) init(app program, opt Options, rank int, assign []int32, ep *comm.Endpoint[T]) error {
	e.opt = opt.withDefaults()
	if err := e.opt.validate(); err != nil {
		return err
	}
	cm, err := machine.NewCostModel(e.opt.Dev, app.Profile())
	if err != nil {
		return err
	}
	e.cm, e.rank, e.assign, e.ep, e.fixed = cm, rank, assign, ep, IsFixedActive(app)
	if e.opt.Scheme == SchemePipelined {
		e.pipe, err = pipeline.NewPipelined[T](e.opt.Workers, e.opt.Movers, e.opt.GenBatchSize)
	}
	return err
}

func (e *engine[T]) shared() *engine[T] { return e }

// local reports whether this device owns v.
func (e *engine[T]) local(v graph.VertexID) bool {
	return e.assign == nil || e.assign[v] == int32(e.rank)
}

// generator is the user generate_messages() of either app kind.
type generator[T any] interface {
	Generate(v graph.VertexID, emit func(dst graph.VertexID, val T))
}

// runGenerate runs a push generate phase under the configured scheme —
// route is the locking-scheme emit target, routeBatch the pipelined
// movers' sink — and folds its statistics into c.
func (e *engine[T]) runGenerate(app generator[T], active []graph.VertexID, c *machine.Counters, route func(graph.VertexID, T), routeBatch func([]graph.VertexID, []T)) error {
	gen := func(v graph.VertexID, emit func(graph.VertexID, T)) {
		if e.opt.Fault.PanicNow(e.rank, e.step, fault.PhaseGenerate) {
			panic(fmt.Sprintf("fault: injected panic, rank %d superstep %d phase generate", e.rank, e.step))
		}
		app.Generate(v, emit)
	}
	var st pipeline.Stats
	var err error
	switch e.opt.Scheme {
	case SchemeLocking:
		st, err = pipeline.RunLocking(active, e.opt.Threads, gen, route)
	case SchemePipelined:
		st, err = e.pipe.RunBatched(active, gen, routeBatch)
	default:
		err = fmt.Errorf("core: unknown scheme %v", e.opt.Scheme)
	}
	if err != nil {
		return err
	}
	c.ActiveVertices += int64(len(active))
	c.EdgesTraversed += st.Messages
	c.Messages += st.Messages
	c.TaskFetches += st.TaskFetches
	c.QueueOps += st.QueueOps
	c.QueueBatchOps += st.QueueBatchOps
	c.RemoteMessages += e.remCount.Swap(0)
	c.Steps++
	return nil
}

// countContention prices insert contention under the locking scheme from
// the real per-column insert counts, for the modeled device's thread count.
func (e *engine[T]) countContention(fills []int32, c *machine.Counters) {
	exp, floor := machine.ContentionStats(fills, e.opt.Dev.Threads())
	c.ConflictExpected += exp
	if floor > c.SerialFloorMsgs {
		c.SerialFloorMsgs = floor
	}
}

// drainer is the remote message buffer as the exchange sees it.
type drainer[T any] interface {
	DrainRouted(out [][]comm.Msg[T], rankOf func(graph.VertexID) int) [][]comm.Msg[T]
}

// exchange performs the cross-device round: it drains remote routed per
// destination owner, swaps payloads with every live peer, and returns the
// received messages for the caller to insert locally plus the peers'
// summed active count — or a *comm.DeviceFailedError when the round failed
// (timeout, dead peer, or an injected fault on this rank). With no endpoint
// or no live peers the round is a no-op: a lone member owns every vertex,
// so its combiner is empty by construction.
func (e *engine[T]) exchange(remote drainer[T], activeLocal int64, c *machine.Counters, pt *PhaseTimes) ([]comm.Msg[T], int64, error) {
	if !e.hasPeers() {
		return nil, 0, nil
	}
	// Drain into fresh per-rank slices: the payload crosses to peers that
	// may still be reading it while this device runs ahead — reusing a
	// scratch buffer here would race with the receivers.
	send := remote.DrainRouted(make([][]comm.Msg[T], e.ep.Ranks()), e.ownerOf)
	recv, activeRemote, st, err := e.ep.ExchangeAll(send, activeLocal)
	if err != nil {
		return nil, 0, err
	}
	c.Messages += int64(len(recv))
	c.BytesSent += st.BytesSent
	c.Exchanges++
	pt.Exchange += st.SimSeconds
	e.wall.exchange += st.WallNS
	return recv, activeRemote, nil
}

// ownerOf routes a remote destination to its owner rank.
func (e *engine[T]) ownerOf(v graph.VertexID) int { return int(e.assign[v]) }

// hasPeers reports whether exchange rounds reach anyone.
func (e *engine[T]) hasPeers() bool { return e.ep != nil && e.ep.NumLivePeers() > 0 }

// generateSeconds prices the generate phase under the configured scheme.
func (e *engine[T]) generateSeconds(c machine.Counters) float64 {
	if e.opt.Scheme == SchemePipelined {
		return e.cm.GeneratePipelined(c, e.opt.Dev.Threads()-machineMovers(e.opt), machineMovers(e.opt))
	}
	return e.cm.GenerateLocking(c, e.opt.Dev.Threads())
}

// machineMovers returns the mover count scaled to the modeled device (the
// real goroutine split may differ when Threads is overridden).
func machineMovers(o Options) int {
	_, movers := machine.DefaultPipeSplit(o.Dev)
	if o.Movers > 0 && o.Workers > 0 && o.Workers+o.Movers == o.Dev.Threads() {
		return o.Movers
	}
	return movers
}

// phaseWallNS is one superstep's measured wall-clock phase durations in
// nanoseconds.
type phaseWallNS struct {
	generate, exchange, process, update int64
}

// clock starts a wall-clock phase measurement; with no metrics sink it
// reads no clock at all.
func (e *engine[T]) clock() time.Time {
	if e.opt.Metrics == nil {
		return time.Time{}
	}
	return time.Now()
}

// lap records the wall time since `since` into *phase and restarts the
// clock (a no-op with no metrics sink).
func (e *engine[T]) lap(phase *int64, since time.Time) time.Time {
	if e.opt.Metrics == nil {
		return since
	}
	now := time.Now()
	*phase = now.Sub(since).Nanoseconds()
	return now
}

// recordSamples emits the superstep's phase samples: wall-clock and
// simulated time to the metrics sink, stamped with the absolute superstep,
// and — unless the superstep was a convergence probe — the simulated
// timeline to the trace recorder, indexed by traceIter. It then resets the
// wall scratch.
func (e *engine[T]) recordSamples(s stepOutcome, traceIter int64) {
	sink, tr := e.opt.Metrics, e.opt.Trace
	if s.probe {
		tr = nil
	}
	if sink != nil || tr != nil {
		dev := e.opt.traceLabel()
		for _, p := range [...]struct {
			phase  string
			wallNS int64
			sim    float64
			events int64
		}{
			{metrics.PhaseGenerate, e.wall.generate, s.pt.Generate, s.c.Messages},
			{metrics.PhaseExchange, e.wall.exchange, s.pt.Exchange, s.c.BytesSent},
			{metrics.PhaseProcess, e.wall.process, s.pt.Process, s.c.ReducedMessages},
			{metrics.PhaseUpdate, e.wall.update, s.pt.Update, s.c.UpdatedVertices},
		} {
			if p.phase == metrics.PhaseExchange && s.c.Exchanges == 0 {
				continue
			}
			if sink != nil {
				sink.RecordPhase(metrics.PhaseSample{Device: dev, Rank: e.rank, Superstep: e.step, Phase: p.phase, Direction: s.dir, WallNS: p.wallNS, SimSeconds: p.sim, Events: p.events})
			}
			if tr != nil {
				tr.Record(trace.Sample{Device: dev, Iteration: traceIter, Phase: p.phase, Direction: s.dir, SimSeconds: p.sim, Events: p.events})
			}
		}
	}
	e.wall = phaseWallNS{}
}

// emitEvent records e on sink, stamping the host time; nil-safe.
func emitEvent(sink metrics.Sink, e metrics.Event) {
	if sink == nil {
		return
	}
	if e.UnixNano == 0 {
		e.UnixNano = time.Now().UnixNano()
	}
	sink.RecordEvent(e)
}

// runSingle drives one device through a 1-member segment: no interconnect,
// no coordinator, no lifecycle. A failure is attributed to its superstep
// and returned with the result accumulated so far — the counters and phase
// times of every completed superstep are diagnostic material, not garbage.
func runSingle[T any](d device[T], active []graph.VertexID) (Result, error) {
	start := time.Now()
	e := d.shared()
	h := &supervisor[T]{n: 1, members: []int{0}}
	h.res.Dev = make([]Result, 1)
	seg := h.runSegment([]device[T]{d}, [][]graph.VertexID{active}, 0, int64(e.opt.MaxIterations), nil, false)
	res := h.res.Dev[0]
	res.WallSeconds = time.Since(start).Seconds()
	err := seg.runErr[0]
	var aerr *RunAbortedError
	switch {
	case errors.As(err, &aerr):
		emitEvent(e.opt.Metrics, metrics.Event{
			Kind: metrics.EventRunAborted, Rank: e.rank,
			Superstep: aerr.Superstep, Detail: "cooperative abort at superstep boundary",
		})
	case err != nil:
		err = fmt.Errorf("core: superstep %d: %w", res.Iterations, err)
		emitEvent(e.opt.Metrics, metrics.Event{
			Kind: metrics.EventSuperstepError, Rank: e.rank,
			Superstep: res.Iterations, Detail: err.Error(),
		})
	}
	return res, err
}

// segmentOutcome is one lockstep segment's result, indexed by rank:
// per-rank errors, per-superstep compute times (indexed relative to the
// segment's start), supersteps recorded, the frontier each rank ended at,
// and — when Options.Abort stopped a rank — the abort boundary.
type segmentOutcome struct {
	runErr    []error
	iterTimes [][]float64
	iters     []int64
	frontier  [][]graph.VertexID
	abortStep []int64
	// healthNS holds each rank's charged per-superstep time (injected stall
	// plus modeled compute — the same quantity charged into iterTimes, and
	// deliberately not the host wall clock, so health verdicts are
	// deterministic and immune to runner noise), index-aligned with
	// iterTimes; collected only when the health scorer is armed. Each rank
	// goroutine appends only to its own slice.
	healthNS [][]int64
}

// segmentAbortStep reports the boundary a cooperative abort stopped the
// segment at (the earliest live rank's, when several recorded one).
func segmentAbortStep(seg segmentOutcome, members []int) (int64, bool) {
	step, ok := int64(-1), false
	for _, r := range members {
		var aerr *RunAbortedError
		if errors.As(seg.runErr[r], &aerr) {
			if !ok || aerr.Superstep < step {
				step = aerr.Superstep
			}
			ok = true
		}
	}
	return step, ok
}

// runSegment is the superstep driver — the only loop that runs superstep
// bodies. It runs the member ranks in lockstep from superstep `from` until
// convergence, the `until` boundary, an abort, or a failure. handshake,
// when non-nil, runs on each rank's endpoint before its loop (resume or
// rejoin barrier agreement). degraded selects the record target: the
// per-rank Dev results at full membership, the Recovery scratch otherwise.
func (h *supervisor[T]) runSegment(devs []device[T], actives [][]graph.VertexID, from, until int64, handshake func(*comm.Endpoint[T]) error, degraded bool) segmentOutcome {
	out := segmentOutcome{
		runErr:    make([]error, h.n),
		iterTimes: make([][]float64, h.n),
		iters:     make([]int64, h.n),
		frontier:  make([][]graph.VertexID, h.n),
		abortStep: make([]int64, h.n),
		healthNS:  make([][]int64, h.n),
	}
	for r := range out.abortStep {
		out.abortStep[r] = -1
	}
	traceBase := int64(0)
	if degraded {
		traceBase = h.recBase
	}
	// A lone member has no allreduce partner: an empty frontier ends its
	// run before generate, and the empty superstep is not counted.
	solo := len(h.members) == 1
	var wg sync.WaitGroup
	for _, m := range h.members {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			d := devs[r]
			e := d.shared()
			rec := &h.res.Dev[r]
			if degraded {
				rec = &h.segRec[r]
			}
			start := rec.Iterations
			// On any error (or an abort), declare this rank dead on both the
			// interconnect and the checkpoint barrier, so the peers fail
			// fast wherever they are waiting instead of deadlocking.
			defer func() {
				out.iters[r] = rec.Iterations - start
				if out.runErr[r] != nil {
					if e.ep != nil {
						e.ep.Abort()
					}
					if h.coord != nil {
						h.coord.MarkDead(r)
					}
				}
			}()
			if handshake != nil {
				if err := handshake(e.ep); err != nil {
					out.runErr[r] = err
					return
				}
			}
			active := actives[r]
			scored := h.health != nil && !degraded
			for iter := from; iter < until && !(solo && len(active) == 0); iter++ {
				if abortRequested(e.opt.Abort) {
					out.abortStep[r] = iter
					out.frontier[r] = active
					out.runErr[r] = &RunAbortedError{Superstep: iter}
					return
				}
				// Gray-fault injection: a slow/gslow event stalls this rank
				// before its local compute. The stall is charged into the
				// rank's superstep time below, so lockstep makes the whole
				// group wait — exactly the signal the health scorer feeds on
				// — while its own exchange deadline only starts afterwards, so
				// a stall under the timeout is never misdiagnosed as death.
				// Like the rest of the plan, suspended during checkpoint
				// replay (degraded segments).
				var stallSec float64
				if !degraded {
					if stall := h.cfg.inj.Slow(r, iter); stall > 0 {
						time.Sleep(stall)
						stallSec = stall.Seconds()
					}
				}
				e.step = iter
				s, err := d.superstep(active)
				if err != nil {
					out.runErr[r] = err
					return
				}
				e.recordSamples(s, traceBase+rec.Iterations)
				rec.add(s.c, s.pt)
				if s.probe {
					rec.Converged = true
					out.frontier[r] = active
					return
				}
				// An injected stall is real superstep time on this rank: it
				// flows into the lockstep max, so mitigation (demoting the
				// straggler) shows up as a simulated-time win. Float32 results
				// are untouched — the stall never enters the reductions.
				charged := stallSec + s.pt.Generate + s.pt.Process + s.pt.Update
				out.iterTimes[r] = append(out.iterTimes[r], charged)
				// The health sample is this same charged time, not a host
				// wall measurement: modeled compute is a deterministic
				// function of the work counts, so identical runs reach
				// identical verdicts at identical supersteps — and a loaded
				// runner (or the race detector) can never fake a straggler.
				// The lockstep exchange wait is excluded either way: it
				// reflects the slowest peer, and folding it in would smear
				// one rank's slowness onto every healthy rank's score.
				if scored {
					out.healthNS[r] = append(out.healthNS[r], int64(charged*1e9))
				}
				if s.converged {
					rec.Converged = true
					return
				}
				if !e.fixed {
					active = s.next
				}
				// Superstep iter is complete; checkpoint at the boundary if
				// due. `active` is exactly this rank's frontier for the next
				// superstep, which is what the snapshot must carry.
				if h.coord != nil && h.coord.Due(iter+1) {
					if err := h.coord.Checkpoint(r, iter+1, active); err != nil {
						out.runErr[r] = err
						return
					}
				}
			}
			if solo && len(active) == 0 {
				rec.Converged = true
			}
			out.frontier[r] = active
		}(m)
	}
	wg.Wait()
	return out
}

// lockstepSeconds sums, over the first n supersteps, the slowest rank's
// compute time. lead bounds the superstep count (the reference rank, rank
// 0 at full membership).
func lockstepSeconds(iterTimes [][]float64, lead, n int) float64 {
	var total float64
	for i := 0; i < n && i < len(iterTimes[lead]); i++ {
		t := iterTimes[lead][i]
		for _, times := range iterTimes {
			if i < len(times) && times[i] > t {
				t = times[i]
			}
		}
		total += t
	}
	return total
}

// add accumulates one superstep into r.
func (r *Result) add(c machine.Counters, pt PhaseTimes) {
	r.Iterations++
	r.Counters.Add(c)
	r.Phases.Add(pt)
	r.SimSeconds = r.Phases.Total()
}
