package core_test

import (
	"strings"
	"sync"
	"testing"

	"hetgraph/internal/apps"
	"hetgraph/internal/core"
	"hetgraph/internal/fault"
	"hetgraph/internal/machine"
	"hetgraph/internal/metrics"
)

// samplesFor filters a collector's phase timeline by rank and phase.
func samplesFor(col *metrics.Collector, rank int, phase string) []metrics.PhaseSample {
	var out []metrics.PhaseSample
	for _, s := range col.Phases() {
		if s.Rank == rank && s.Phase == phase {
			out = append(out, s)
		}
	}
	return out
}

func eventKinds(col *metrics.Collector) map[string]int {
	out := map[string]int{}
	for _, e := range col.Events() {
		out[e.Kind]++
	}
	return out
}

// TestMetricsSingleDeviceRecordsPhases checks the f32 engine emits one
// wall+sim sample per compute phase per superstep (no exchange samples on a
// single device), with plausible values.
func TestMetricsSingleDeviceRecordsPhases(t *testing.T) {
	g := testGraph(t)
	col := metrics.NewCollector()
	const iters = 4
	res, err := core.RunF32(apps.NewPageRank(), g, core.Options{
		Dev: machine.MIC(), Scheme: core.SchemePipelined, Vectorized: true,
		MaxIterations: iters, Metrics: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{metrics.PhaseGenerate, metrics.PhaseProcess, metrics.PhaseUpdate} {
		ss := samplesFor(col, 0, phase)
		if len(ss) != iters {
			t.Fatalf("phase %s: %d samples, want %d", phase, len(ss), iters)
		}
		var wall, events int64
		var sim float64
		for i, s := range ss {
			if s.Superstep != int64(i) {
				t.Fatalf("phase %s sample %d: superstep %d", phase, i, s.Superstep)
			}
			if s.Device != "MIC" {
				t.Fatalf("phase %s: device %q", phase, s.Device)
			}
			if s.WallNS < 0 || s.SimSeconds < 0 {
				t.Fatalf("phase %s: negative time %+v", phase, s)
			}
			wall += s.WallNS
			sim += s.SimSeconds
			events += s.Events
		}
		if wall == 0 {
			t.Errorf("phase %s: zero total wall time across %d supersteps", phase, iters)
		}
		if sim == 0 || events == 0 {
			t.Errorf("phase %s: zero sim time or events", phase)
		}
	}
	if ex := samplesFor(col, 0, metrics.PhaseExchange); len(ex) != 0 {
		t.Errorf("single-device run recorded %d exchange samples", len(ex))
	}
	// Per-phase simulated time must sum to the result's phase totals.
	var simTotal float64
	for _, s := range col.Phases() {
		simTotal += s.SimSeconds
	}
	if diff := simTotal - res.SimSeconds; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("sample sim total %v != result sim %v", simTotal, res.SimSeconds)
	}
}

// TestMetricsHeteroRecordsBothRanks checks a clean two-device run records
// all four phases for both ranks into a shared sink, including exchange
// wall time measured inside the comm layer.
func TestMetricsHeteroRecordsBothRanks(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	col := metrics.NewCollector()
	const iters = 5
	opt0 := core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, Vectorized: true,
		MaxIterations: iters, Metrics: col}
	opt1 := core.Options{Dev: machine.MIC(), Scheme: core.SchemePipelined, Vectorized: true,
		MaxIterations: iters, Metrics: col}
	if _, err := core.RunF32Hetero(apps.NewPageRank(), g, assign, opt0, opt1); err != nil {
		t.Fatal(err)
	}
	for rank, dev := range map[int]string{0: "CPU", 1: "MIC"} {
		for _, phase := range []string{metrics.PhaseGenerate, metrics.PhaseExchange, metrics.PhaseProcess, metrics.PhaseUpdate} {
			ss := samplesFor(col, rank, phase)
			if len(ss) != iters {
				t.Fatalf("rank %d phase %s: %d samples, want %d", rank, phase, len(ss), iters)
			}
			var wall int64
			for _, s := range ss {
				if s.Device != dev {
					t.Fatalf("rank %d: device %q, want %q", rank, s.Device, dev)
				}
				wall += s.WallNS
			}
			if wall == 0 {
				t.Errorf("rank %d phase %s: zero total wall time", rank, phase)
			}
		}
	}
}

// TestMetricsDegradedRunEventLog checks the operational event log of a
// checkpointed run that loses a device: checkpoints (with wall cost), the
// failure, and the degradation must all appear, in causal order.
func TestMetricsDegradedRunEventLog(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	opt0, opt1 := chaosOpts(10, 2, "rank1:drop@5", t)
	col := metrics.NewCollector()
	opt0.Metrics = col
	res, err := core.RunF32Hetero(apps.NewPageRank(), g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("run did not degrade")
	}
	kinds := eventKinds(col)
	if kinds[metrics.EventCheckpoint] == 0 {
		t.Error("no checkpoint events recorded")
	}
	if kinds[metrics.EventDeviceFailed] != 1 || kinds[metrics.EventDegraded] != 1 {
		t.Errorf("event kinds = %v, want one device-failed and one degraded", kinds)
	}
	var failedAt, degradedAt int = -1, -1
	for i, e := range col.Events() {
		switch e.Kind {
		case metrics.EventCheckpoint:
			if e.WallNS <= 0 {
				t.Errorf("checkpoint event %d has no wall cost: %+v", i, e)
			}
		case metrics.EventDeviceFailed:
			failedAt = i
			if e.Rank != 1 || e.Superstep != 5 {
				t.Errorf("device-failed attribution: %+v", e)
			}
		case metrics.EventDegraded:
			degradedAt = i
		}
		if e.UnixNano == 0 {
			t.Errorf("event %d missing timestamp: %+v", i, e)
		}
	}
	if failedAt == -1 || degradedAt < failedAt {
		t.Errorf("degraded event (index %d) not after device-failed (index %d)", degradedAt, failedAt)
	}
}

// degradeSplitSink records the phase samples emitted after the run's
// degraded event, i.e. the surviving ranks' samples.
type degradeSplitSink struct {
	mu       sync.Mutex
	degraded bool
	after    []metrics.PhaseSample
}

func (s *degradeSplitSink) RecordPhase(p metrics.PhaseSample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded {
		s.after = append(s.after, p)
	}
}

func (s *degradeSplitSink) RecordEvent(e metrics.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Kind == metrics.EventDegraded {
		s.degraded = true
	}
}

// TestMetricsDegradedLoneSurvivorSamplesCarryRank: after rank 0 drops, the
// MIC rank finishes alone from the checkpoint at superstep 4. Its phase
// samples must carry its own rank and the absolute supersteps it replays —
// not rank 0 with supersteps restarting at 0, which collide with the dead
// CPU rank's samples.
func TestMetricsDegradedLoneSurvivorSamplesCarryRank(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	opt0, opt1 := chaosOpts(10, 2, "rank0:drop@5", t)
	sink := &degradeSplitSink{}
	opt0.Metrics, opt1.Metrics = sink, sink
	res, err := core.RunF32Hetero(apps.NewPageRank(), g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.FailedRank != 0 || res.ResumedSuperstep != 4 {
		t.Fatalf("Degraded=%v FailedRank=%d ResumedSuperstep=%d, want rank 0 down and a resume at 4",
			res.Degraded, res.FailedRank, res.ResumedSuperstep)
	}
	if len(sink.after) == 0 {
		t.Fatal("no phase samples after the degrade")
	}
	seen := map[int64]bool{}
	for _, s := range sink.after {
		if s.Rank != 1 || s.Superstep < res.ResumedSuperstep || s.Superstep >= res.Iterations {
			t.Fatalf("post-degrade sample rank=%d superstep=%d, want rank 1 in [%d, %d)",
				s.Rank, s.Superstep, res.ResumedSuperstep, res.Iterations)
		}
		seen[s.Superstep] = true
	}
	if int64(len(seen)) != res.Iterations-res.ResumedSuperstep {
		t.Errorf("survivor sampled supersteps %v, want every one of [%d, %d)", seen, res.ResumedSuperstep, res.Iterations)
	}
}

// TestMetricsSuperstepErrorReturnsPartialResult checks the single-device
// failure contract: a mid-run failure must surface the superstep index in
// the error, keep the counters accumulated so far, and log a superstep-error
// event.
func TestMetricsSuperstepErrorReturnsPartialResult(t *testing.T) {
	g := testGraph(t)
	plan, err := fault.Parse("rank0:panic@2:generate")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector()
	res, err := core.RunF32(apps.NewPageRank(), g, core.Options{
		Dev: machine.CPU(), Scheme: core.SchemeLocking, MaxIterations: 6,
		Fault: inj, Metrics: col,
	})
	if err == nil {
		t.Fatal("injected panic did not fail the run")
	}
	if !strings.Contains(err.Error(), "superstep 2") {
		t.Errorf("error does not name the failing superstep: %v", err)
	}
	if res.Iterations != 2 {
		t.Errorf("partial result lost: Iterations = %d, want 2 completed supersteps", res.Iterations)
	}
	if res.Counters.Messages == 0 || res.SimSeconds == 0 {
		t.Errorf("partial counters zeroed: %+v", res.Counters)
	}
	found := false
	for _, e := range col.Events() {
		if e.Kind == metrics.EventSuperstepError && e.Superstep == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("no superstep-error event at superstep 2; events: %+v", col.Events())
	}
}

// TestMetricsGenericEngineFusedAttribution checks the structured-message
// engine's documented wall attribution: the fused process+update walk is
// charged to the process sample; the update sample carries simulated time
// only.
func TestMetricsGenericEngineFusedAttribution(t *testing.T) {
	g := testGraph(t)
	col := metrics.NewCollector()
	const iters = 3
	_, err := core.RunGeneric[apps.LPAMsg](apps.NewLabelPropagation(), g, core.Options{
		Dev: machine.CPU(), Scheme: core.SchemeLocking, MaxIterations: iters, Metrics: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := samplesFor(col, 0, metrics.PhaseGenerate)
	proc := samplesFor(col, 0, metrics.PhaseProcess)
	upd := samplesFor(col, 0, metrics.PhaseUpdate)
	if len(gen) != iters || len(proc) != iters || len(upd) != iters {
		t.Fatalf("sample counts: gen %d proc %d upd %d, want %d each", len(gen), len(proc), len(upd), iters)
	}
	var genWall, procWall int64
	for i := range gen {
		genWall += gen[i].WallNS
		procWall += proc[i].WallNS
		if upd[i].WallNS != 0 {
			t.Errorf("update sample %d has wall time %d; the fused walk charges process", i, upd[i].WallNS)
		}
		if upd[i].SimSeconds <= 0 {
			t.Errorf("update sample %d missing simulated time", i)
		}
	}
	if genWall == 0 || procWall == 0 {
		t.Errorf("zero wall totals: generate %d, process %d", genWall, procWall)
	}
}

// TestMetricsNilSinkRecordsNothing pins the contract that a nil sink leaves
// no trace of the metrics layer in results (the whole suite runs with nil
// sinks, so behavioral equivalence is covered; this guards the plumbing).
func TestMetricsNilSinkRecordsNothing(t *testing.T) {
	g := chaosGraph(t)
	res1, err := core.RunF32(apps.NewPageRank(), g, core.Options{
		Dev: machine.MIC(), Scheme: core.SchemeLocking, MaxIterations: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector()
	res2, err := core.RunF32(apps.NewPageRank(), g, core.Options{
		Dev: machine.MIC(), Scheme: core.SchemeLocking, MaxIterations: 3, Metrics: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res1.SimSeconds != res2.SimSeconds || res1.Counters != res2.Counters {
		t.Errorf("metrics collection changed the modeled run: sim %v vs %v", res1.SimSeconds, res2.SimSeconds)
	}
	if col.Len() == 0 {
		t.Error("collector empty after instrumented run")
	}
}
