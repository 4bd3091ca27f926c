package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"hetgraph"
	"hetgraph/internal/apps"
	"hetgraph/internal/core"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/metrics"
	"hetgraph/internal/partition"
)

const (
	// prIters is the PageRank superstep count of pagerank-mic.
	prIters = 10
	// simTolerance is the largest relative difference between the sim_s of
	// two runs of one input that still counts as the same behaviour. sim_s
	// is not byte-identical from run to run: Counters.VecRows depends on the
	// order in which concurrent inserts allocate CSB columns, and the cost
	// model prices it (observed drift up to ~1e-5). Every other counter the
	// model prices repeats exactly, and a change in what the engine does
	// moves sim_s by far more than this.
	simTolerance = 1e-4
)

// engineRun is one finished engine run, before its oracle check.
type engineRun struct {
	sim    float64
	hetero *core.HeteroResult // nil for single-device runs
	// check compares the run's output with the sequential oracle.
	check func() error
}

// engineRunner executes one complete engine run; s is nil for untraced
// runs, and pinned caps the engine's goroutine pools at the host's cores.
type engineRunner func(s *sink, pinned bool) (engineRun, error)

// verify turns the facade oracle's verdict into an error.
func verify(name string, app hetgraph.AppF32, g *graph.CSR, src graph.VertexID, iters int) error {
	if ok, detail := hetgraph.VerifyAgainstSequential(name, app, g, src, iters); !ok {
		return fmt.Errorf("oracle mismatch: %s", detail)
	}
	return nil
}

func runPageRankMIC(cfg config, tr *tracer, rep *report) error {
	g0, err := powerLaw(pagerankVertices, cfg.seed, false)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.dir, "graph.bin")
	if err := graph.SaveBinaryFile(path, g0); err != nil {
		return err
	}
	g0 = nil
	var g *graph.CSR
	var loads []float64
	setup, err := setupTimes(tr, func(parent int) error {
		var d float64
		g, d, err = loadGraph(tr, parent, path)
		loads = append(loads, d)
		return err
	}, nil)
	if err != nil {
		return err
	}
	run := func(s *sink, pinned bool) (engineRun, error) {
		app := apps.NewPageRank()
		opt := core.Options{Dev: machine.MIC(), Scheme: core.SchemeLocking, Vectorized: true, MaxIterations: prIters}
		if pinned {
			opt.Threads = cfg.procs
		}
		if s != nil {
			opt.Metrics = s
		}
		res, err := core.RunF32(app, g, opt)
		return engineRun{sim: res.SimSeconds, check: func() error {
			return verify("pagerank", app, g, 0, prIters)
		}}, err
	}
	measureEngine(cfg, tr, rep, run, setup)
	if cfg.traced {
		rep.add("graph.load_s", "s", median(loads), len(loads))
		return layerReplays(cfg, tr, rep, replayInput{g: g, dev: machine.MIC(), seqApp: func() core.AppF32 { return apps.NewPageRank() }, seqIters: prIters})
	}
	return nil
}

func runSSSPHetero(cfg config, tr *tracer, rep *report) error {
	g0, err := powerLaw(ssspVertices, cfg.seed, true)
	if err != nil {
		return err
	}
	srcs, err := ssspSources(g0, cfg.seed, 1, 16, ssspWork{msgsPerEdge: 5.3, supersteps: 24, tol: 0.05})
	if err != nil {
		return err
	}
	src := srcs[0]
	path := filepath.Join(cfg.dir, "graph.bin")
	if err := graph.SaveBinaryFile(path, g0); err != nil {
		return err
	}
	g0 = nil
	split := partition.Ratio{A: 4, B: 4}
	var (
		g       *graph.CSR
		assign  []int32
		loads   []float64
		parts   []float64
		partErr error
	)
	setup, err := setupTimes(tr, func(parent int) error {
		var d float64
		if g, d, err = loadGraph(tr, parent, path); err != nil {
			return err
		}
		loads = append(loads, d)
		id := tr.open("metis.partition", parent)
		t0 := time.Now()
		assign, partErr = partition.Make(partition.MethodHybrid, g, split)
		parts = append(parts, time.Since(t0).Seconds())
		tr.close(id)
		return partErr
	}, nil)
	if err != nil {
		return err
	}
	run := func(s *sink, pinned bool) (engineRun, error) {
		app := apps.NewSSSP(src)
		cpu := core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, Vectorized: true}
		mic := core.Options{Dev: machine.MIC(), Scheme: core.SchemePipelined, Vectorized: true}
		if pinned {
			cpu.Threads, mic.Threads = cfg.procs, cfg.procs
			mic.Workers, mic.Movers = 1, 1
		}
		if s != nil {
			cpu.Metrics, mic.Metrics = s, s
		}
		res, err := core.RunF32Hetero(app, g, assign, cpu, mic)
		return engineRun{sim: res.SimSeconds, hetero: &res, check: func() error {
			return verify("sssp", app, g, src, 0)
		}}, err
	}
	measureEngine(cfg, tr, rep, run, setup)
	if cfg.traced {
		rep.add("graph.load_s", "s", median(loads), len(loads))
		rep.add("metis.partition_s", "s", median(parts), len(parts))
		rep.add("partition.cross_edges", "count", float64(partition.CrossEdges(g, assign)), 1)
		rep.add("partition.balance_error", "frac", partition.BalanceError(g, assign, split), 1)
		mine := func(v graph.VertexID) bool { return assign[v] == 1 }
		return layerReplays(cfg, tr, rep, replayInput{g: g, owned: mine, dev: machine.MIC(), seqApp: func() core.AppF32 { return apps.NewSSSP(src) }, seqIters: core.DefaultMaxIterations})
	}
	return nil
}

// measureEngine runs complete engine runs back to back for cfg.seconds,
// checks each against the oracle outside the timed region, and reports the
// end-to-end metrics (untraced) or the per-layer core, comm and runtime
// metrics (traced). A traced measurement alternates untraced and traced
// runs so that the difference between them is the tracing overhead.
func measureEngine(cfg config, tr *tracer, rep *report, run engineRunner, setup []float64) {
	var (
		walls, tracedWalls, allocs, pauses, sims []float64
		firstSim, drift                          float64
		tracedRuns                               [][]metrics.PhaseSample
		heteros                                  []*core.HeteroResult
		watch                                    *heapWatch
	)
	if cfg.traced {
		watch = watchHeap()
	}
	t0 := time.Now()
	for i := 0; i == 0 || (cfg.traced && i < 2) || !cfg.deadline(t0); i++ {
		traced := cfg.traced && i%2 == 1
		var s *sink
		id := 0
		if traced {
			id = tr.open("core.run", 0)
			s = newSink(tr, id)
		}
		runtime.GC()
		var (
			r    engineRun
			err  error
			wall float64
		)
		alloc, pause := memDelta(func() {
			start := time.Now()
			r, err = run(s, true)
			wall = time.Since(start).Seconds()
		})
		tr.close(id)
		rep.attempted++
		if err == nil {
			err = r.check()
		}
		if err != nil {
			rep.fail("run %d: %v", i, err)
			continue
		}
		if firstSim == 0 {
			firstSim = r.sim
		}
		d := math.Abs(r.sim-firstSim) / firstSim
		drift = math.Max(drift, d)
		if d > simTolerance {
			rep.fail("run %d: sim_s %.17g differs from the first run's %.17g", i, r.sim, firstSim)
		}
		fmt.Printf("run %d: traced=%v wall %.4f s sim %.17g alloc %.1f MB\n", i, traced, wall, r.sim, float64(alloc)/(1<<20))
		if traced {
			tracedWalls = append(tracedWalls, wall)
			tracedRuns = append(tracedRuns, s.phases)
			heteros = append(heteros, r.hetero)
			pauses = append(pauses, float64(pause)/1e6)
			continue
		}
		walls = append(walls, wall)
		sims = append(sims, r.sim)
		allocs = append(allocs, float64(alloc)/(1<<20))
	}
	if !cfg.traced {
		var sum float64
		for _, x := range walls {
			sum += x
		}
		rep.add("run_s", "s", median(walls), len(walls))
		rep.add("sim_s", "s", median(sims), len(sims))
		rep.add("setup_s", "s", median(setup), len(setup))
		rep.add("alloc_mb", "MB", median(allocs), len(allocs))
		rep.add("job_s_p50", "s", median(walls), len(walls))
		rep.add("job_s_p90", "s", quantile(walls, 0.9), len(walls))
		rep.add("jobs_per_s", "1/s", ratio(float64(len(walls)), sum), len(walls))
		return
	}
	rep.add("runtime.heap_peak_mb", "MB", watch.peakMB(), 1)
	rep.add("runtime.gc_pause_ms", "ms", median(pauses), len(pauses))
	rep.add("core.trace_overhead_frac", "frac", ratio(median(tracedWalls), median(walls))-1, len(tracedWalls)+len(walls))
	rep.add("core.sim_drift_frac", "frac", drift, rep.attempted)
	coreMetrics(rep, tracedRuns, len(tracedRuns), true)
	commMetrics(rep, heteros)

	// How much pinning the goroutine pools moves simulated time, from one
	// unpinned run.
	rep.attempted++
	r, err := run(nil, false)
	if err == nil {
		err = r.check()
	}
	if err != nil {
		rep.fail("unpinned run: %v", err)
		return
	}
	rep.add("core.pin_sim_delta_frac", "frac", math.Abs(r.sim-firstSim)/firstSim, 1)
}

// phaseKey and phaseAgg sum one rank's phase over the traced runs.
type phaseKey struct {
	rank  int
	phase string
}

type phaseAgg struct {
	wallNS, events int64
	sim            float64
}

// coreMetrics reports the per-rank phase metrics, per engine run, from the
// traced phase samples of n engine runs. With perRun each slice holds one
// run's samples, which the long-pole shares need; serve's concurrent jobs
// interleave their samples, so serve-mix passes one slice and reports no
// shares.
func coreMetrics(rep *report, runs [][]metrics.PhaseSample, n int, perRun bool) {
	agg := map[phaseKey]*phaseAgg{}
	var steps int
	var pole [2]int
	for _, phases := range runs {
		compute := map[int64]*[2]int64{}
		for _, p := range phases {
			if p.Rank > 1 {
				continue
			}
			k := phaseKey{p.Rank, p.Phase}
			a := agg[k]
			if a == nil {
				a = &phaseAgg{}
				agg[k] = a
			}
			a.wallNS += p.WallNS
			a.events += p.Events
			a.sim += p.SimSeconds
			if p.Phase != metrics.PhaseExchange {
				c := compute[p.Superstep]
				if c == nil {
					c = &[2]int64{}
					compute[p.Superstep] = c
				}
				c[p.Rank] += p.WallNS
			}
		}
		for _, c := range compute {
			steps++
			if c[1] > c[0] {
				pole[1]++
			} else {
				pole[0]++
			}
		}
	}
	for r := 0; r < 2; r++ {
		get := func(phase string) phaseAgg {
			if a := agg[phaseKey{r, phase}]; a != nil {
				return *a
			}
			return phaseAgg{}
		}
		// A rank without samples (no such rank, or serve, which attaches
		// its sink to rank 0 only) reports nothing.
		if get(metrics.PhaseGenerate).wallNS == 0 {
			continue
		}
		pre := fmt.Sprintf("core.r%d.", r)
		for _, ph := range []string{metrics.PhaseGenerate, metrics.PhaseProcess, metrics.PhaseUpdate, metrics.PhaseExchange} {
			rep.add(pre+ph+"_s", "s", ratio(float64(get(ph).wallNS)/1e9, float64(n)), n)
		}
		for _, ph := range []string{metrics.PhaseGenerate, metrics.PhaseProcess} {
			a := get(ph)
			rep.add(pre+ph+"_ns_per_msg", "ns", ratio(float64(a.wallNS), float64(a.events)), int(a.events))
			rep.add(pre+ph+"_wall_over_sim", "ratio", ratio(float64(a.wallNS)/1e9, a.sim), n)
		}
		if perRun {
			rep.add(fmt.Sprintf("core.long_pole_share.r%d", r), "frac", ratio(float64(pole[r]), float64(steps)), steps)
		}
	}
}

// commMetrics reports the interconnect's per-run traffic from the traced
// hetero runs (zeros for single-device workloads).
func commMetrics(rep *report, runs []*core.HeteroResult) {
	var msgs, bytes, retx, remote float64
	n := 0
	for _, h := range runs {
		if h == nil {
			continue
		}
		n++
		for _, l := range h.Links {
			msgs += float64(l.Msgs)
			bytes += float64(l.Bytes)
			retx += float64(l.Retransmits)
		}
		for _, d := range h.Dev {
			remote += float64(d.Counters.RemoteMessages)
		}
	}
	rep.add("comm.msgs", "count", ratio(msgs, float64(n)), n)
	rep.add("comm.bytes", "B", ratio(bytes, float64(n)), n)
	rep.add("comm.retransmits", "count", ratio(retx, float64(n)), n)
	rep.add("comm.combine_ratio", "ratio", ratio(msgs, remote), n)
}
