package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hetgraph/internal/apps"
	"hetgraph/internal/checkpoint"
	"hetgraph/internal/core"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/metrics"
	"hetgraph/internal/partition"
	"hetgraph/internal/seqref"
	"hetgraph/internal/serve"
)

// jobTimeout bounds how long a client waits for one job before counting it
// as a job that did not complete.
const jobTimeout = 60 * time.Second

// firstSpec is client 0's first submission; its simulated time is serve-mix's
// sim_s.
var firstSpec = serve.JobSpec{Algorithm: serve.AlgoPageRank, Iterations: serve.DefaultPageRankIterations}

// algorithms is the order in which each client submits fresh specs.
var algorithms = []string{serve.AlgoPageRank, serve.AlgoBFS, serve.AlgoSSSP, serve.AlgoCC}

// jobPlan yields each client's deterministic submission sequence: fresh
// specs cycle through the algorithms, and every second submission repeats
// a spec the client has already seen complete.
type jobPlan struct {
	clients int
	seed    int64
	sources []graph.VertexID
}

func newJobPlan(g *graph.CSR, seed int64, clients int) (jobPlan, error) {
	srcs, err := ssspSources(g, seed, 32, 160, ssspWork{msgsPerEdge: 4.4, supersteps: 19, tol: 0.08})
	return jobPlan{clients: clients, seed: seed, sources: srcs}, err
}

// fresh returns client c's f-th fresh spec. Specs of different clients
// never coincide, so each is computed exactly once unless repeated.
func (p jobPlan) fresh(c, f int) serve.JobSpec {
	if c == 0 && f == 0 {
		return firstSpec
	}
	u := f*p.clients + c // unique across clients
	spec := serve.JobSpec{Algorithm: algorithms[(f+c)%len(algorithms)]}
	switch spec.Algorithm {
	case serve.AlgoPageRank:
		// 11, 9, 12, 8, 13, ...: new counts whose mean stays at firstSpec's.
		d := u/2 + 1
		if u%2 == 1 {
			d = -d
		}
		spec.Iterations = max(firstSpec.Iterations+d, 1)
		if spec.Iterations == 1 {
			spec.Iterations = firstSpec.Iterations + u
		}
	case serve.AlgoBFS, serve.AlgoSSSP:
		// One bfs and one sssp spec per cycle of algorithms share a source.
		spec.Source = int64(p.sources[(f/len(algorithms)*p.clients+c)%len(p.sources)])
	case serve.AlgoCC:
		// Far above the convergence depth: the result is the converged
		// labelling, but the canonical spec is new.
		spec.Iterations = 1000 + u
	}
	return spec
}

// jobSample is one submission as a client saw it.
type jobSample struct {
	spec    serve.JobSpec
	submit  time.Duration // Submit call
	latency time.Duration // Submit until Done
	status  serve.JobStatus
	err     error
}

// session is one closed-loop measurement against one server.
type session struct {
	samples []jobSample
	elapsed time.Duration
	alloc   uint64
	pauseNS uint64
}

// runSession drives srv with cfg.procs closed-loop clients for cfg.seconds;
// the clients stop submitting at the deadline and wait for their last job.
func runSession(cfg config, srv *serve.Server, plan jobPlan) session {
	var (
		mu   sync.Mutex
		out  session
		wg   sync.WaitGroup
		t0   time.Time
		stop = make(chan struct{})
	)
	client := func(c int) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(plan.seed*7919 + int64(c)))
		var seen []serve.JobSpec
		fresh := 0
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			var spec serve.JobSpec
			if k%2 == 0 || len(seen) == 0 {
				spec = plan.fresh(c, fresh)
				fresh++
			} else {
				spec = seen[rng.Intn(len(seen))]
			}
			s := jobSample{spec: spec}
			start := time.Now()
			job, err := srv.Submit(spec)
			s.submit = time.Since(start)
			if err == nil {
				select {
				case <-job.Done():
					s.latency = time.Since(start)
					s.status = srv.Status(job)
				case <-time.After(jobTimeout):
					err = fmt.Errorf("job %s did not complete within %s", job.ID(), jobTimeout)
				}
			}
			s.err = err
			if err == nil && s.status.State == serve.StateCompleted {
				seen = append(seen, spec)
			}
			mu.Lock()
			out.samples = append(out.samples, s)
			mu.Unlock()
		}
	}
	runtime.GC()
	out.alloc, out.pauseNS = memDelta(func() {
		t0 = time.Now()
		for c := 0; c < cfg.procs; c++ {
			wg.Add(1)
			go client(c)
		}
		time.Sleep(cfg.seconds)
		close(stop)
		wg.Wait()
		out.elapsed = time.Since(t0)
	})
	return out
}

// oracleFingerprint is the result fingerprint serve must report for a
// completed bfs, sssp or cc spec: FNV-1a over the snapshot encoding of an
// independent sequential result. PageRank has no exact oracle (its tolerance
// check needs the values, which serve does not expose).
func oracleFingerprint(g *graph.CSR, spec serve.JobSpec) (string, bool) {
	var snap []byte
	switch spec.Algorithm {
	case serve.AlgoBFS:
		snap = checkpoint.EncodeI32(seqref.ClassicBFS(g, graph.VertexID(spec.Source)))
	case serve.AlgoSSSP:
		snap = checkpoint.EncodeF32(seqref.ClassicSSSP(g, graph.VertexID(spec.Source)))
	case serve.AlgoCC:
		snap = checkpoint.EncodeF32(minAncestorLabels(g))
	default:
		return "", false
	}
	h := fnv.New64a()
	h.Write(snap)
	return fmt.Sprintf("%016x", h.Sum64()), true
}

// minAncestorLabels is the oracle for cc on a directed graph, where
// min-label propagation converges to directed-reachability components:
// each vertex's label is the smallest vertex ID that reaches it. Visiting
// roots in ID order, a search from u labels exactly the vertices no smaller
// root reached, since anything reachable from such a vertex was reached too.
func minAncestorLabels(g *graph.CSR) []float32 {
	n := g.NumVertices()
	labels := make([]float32, n)
	seen := make([]bool, n)
	var stack []graph.VertexID
	for u := 0; u < n; u++ {
		if seen[u] {
			continue
		}
		seen[u] = true
		stack = append(stack[:0], graph.VertexID(u))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			labels[v] = float32(u)
			for _, w := range g.Neighbors(v) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return labels
}

// checkSession applies the correctness gate: every submission admitted and
// completed, one result fingerprint per canonical spec, and that
// fingerprint equal to the oracle's where one exists.
func checkSession(g *graph.CSR, s session, rep *report) {
	fps := map[serve.JobSpec]string{}
	for _, x := range s.samples {
		rep.attempted++
		switch {
		case x.err != nil:
			rep.fail("%s: %v", x.spec.Algorithm, x.err)
			continue
		case x.status.State != serve.StateCompleted || x.status.Result == nil:
			rep.fail("job %s (%+v) ended %s: %s", x.status.ID, x.spec, x.status.State, x.status.Error)
			continue
		}
		key := x.spec.Canonical()
		key.Tenant = ""
		fp := x.status.Result.ResultFingerprint
		if prev, ok := fps[key]; ok && prev != fp {
			rep.fail("spec %+v has fingerprints %s and %s", key, prev, fp)
		}
		fps[key] = fp
	}
	for spec, fp := range fps {
		if want, ok := oracleFingerprint(g, spec); ok && want != fp {
			rep.fail("spec %+v: fingerprint %s, oracle says %s", spec, fp, want)
		}
	}
}

func runServeMix(cfg config, tr *tracer, rep *report) error {
	g0, err := powerLaw(serveVertices, cfg.seed, true)
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.dir, "graph.bin")
	if err := graph.SaveBinaryFile(path, g0); err != nil {
		return err
	}
	g0 = nil
	var (
		g     *graph.CSR
		srv   *serve.Server
		loads []float64
		dirs  int
	)
	newServer := func(parent int, sink metrics.Sink) (*serve.Server, error) {
		dirs++
		id := tr.open("serve.new", parent)
		defer tr.close(id)
		return serve.New(serve.Config{
			Graph: g, GraphPath: "serve-mix", Metrics: sink,
			StateDir: filepath.Join(cfg.dir, fmt.Sprintf("state%d", dirs)),
		})
	}
	setup, err := setupTimes(tr, func(parent int) error {
		var d float64
		if g, d, err = loadGraph(tr, parent, path); err != nil {
			return err
		}
		loads = append(loads, d)
		srv, err = newServer(parent, nil)
		return err
	}, func() { srv.Close() })
	if err != nil {
		return err
	}
	plan, err := newJobPlan(g, cfg.seed, cfg.procs)
	if err != nil {
		srv.Close()
		return err
	}
	untraced := runSession(cfg, srv, plan)
	if err := srv.Close(); err != nil {
		return err
	}
	checkSession(g, untraced, rep)
	if !cfg.traced {
		reportServeEndToEnd(rep, untraced, setup)
		return nil
	}

	// Traced session: same plan against a fresh server whose metrics sink
	// records the engine's phases and the job and checkpoint events.
	id := tr.open("serve.session", 0)
	s := newSink(tr, id)
	srv, err = newServer(id, s)
	if err != nil {
		return err
	}
	watch := watchHeap()
	traced := runSession(cfg, srv, plan)
	heapPeak := watch.peakMB()
	shed := srv.Shed()
	if err := srv.Close(); err != nil {
		return err
	}
	tr.close(id)
	checkSession(g, traced, rep)
	for _, x := range traced.samples {
		if x.err == nil {
			start := time.Unix(0, x.status.SubmittedUnixNano)
			tr.add("serve.job", id, start, start.Add(x.latency))
		}
	}
	reportServeLayers(rep, untraced, traced, s, shed, heapPeak, loads)
	assign, err := partition.MakeN(partition.MethodContinuous, g, []int{machine.CPU().Threads(), machine.MIC().Threads()})
	if err != nil {
		return err
	}
	rep.add("partition.cross_edges", "count", float64(partition.CrossEdges(g, assign)), 1)
	rep.add("partition.balance_error", "frac", partition.BalanceError(g, assign, partition.Ratio{A: machine.CPU().Threads(), B: machine.MIC().Threads()}), 1)
	mine := func(v graph.VertexID) bool { return assign[v] == 1 }
	return layerReplays(cfg, tr, rep, replayInput{g: g, owned: mine, dev: machine.MIC(), seqApp: func() core.AppF32 { return apps.NewPageRank() }, seqIters: firstSpec.Iterations})
}

// executed splits the completed submissions into those that ran the engine
// and cache hits.
func executed(s session) (ran, hits []jobSample) {
	for _, x := range s.samples {
		if x.err != nil || x.status.State != serve.StateCompleted || x.status.Result == nil {
			continue
		}
		if x.status.Cached {
			hits = append(hits, x)
		} else {
			ran = append(ran, x)
		}
	}
	return ran, hits
}

// byAlgorithm groups value over the jobs by algorithm, in algorithms order.
func byAlgorithm(jobs []jobSample, value func(jobSample) float64) [][]float64 {
	by := make([][]float64, len(algorithms))
	for _, x := range jobs {
		for i, a := range algorithms {
			if x.spec.Algorithm == a {
				by[i] = append(by[i], value(x))
			}
		}
	}
	return by
}

// stratifiedMedian is the median of the per-algorithm medians of a value
// over executed jobs. Every algorithm weighs the same however many of its
// jobs the window completed; a pooled median would sit on the step between
// two algorithms' latency clusters and jump with the window's composition.
func stratifiedMedian(ran []jobSample, value func(jobSample) float64) float64 {
	var meds []float64
	for _, l := range byAlgorithm(ran, value) {
		if len(l) > 0 {
			meds = append(meds, median(l))
		}
	}
	return median(meds)
}

func latency(x jobSample) float64 { return x.latency.Seconds() }

func engineWall(x jobSample) float64 { return x.status.Result.WallSeconds }

func reportServeEndToEnd(rep *report, s session, setup []float64) {
	ran, hits := executed(s)
	for i, l := range byAlgorithm(ran, latency) {
		fmt.Printf("jobs %-8s n=%-3d latency p50 %.4f s max %.4f s\n", algorithms[i], len(l), median(l), quantile(l, 1))
	}
	fmt.Printf("jobs cached   n=%d\n", len(hits))
	var lat []float64
	sim := 0.0
	for _, x := range ran {
		lat = append(lat, latency(x))
		if x.spec == firstSpec {
			sim = x.status.Result.SimSeconds
		}
	}
	done := len(ran) + len(hits)
	rep.add("run_s", "s", stratifiedMedian(ran, engineWall), len(ran))
	rep.add("sim_s", "s", sim, 1)
	rep.add("setup_s", "s", median(setup), len(setup))
	rep.add("alloc_mb", "MB", ratio(float64(s.alloc)/(1<<20), float64(done)), done)
	rep.add("job_s_p50", "s", stratifiedMedian(ran, latency), len(lat))
	rep.add("job_s_p90", "s", quantile(lat, 0.9), len(lat))
	rep.add("jobs_per_s", "1/s", float64(done)/s.elapsed.Seconds(), done)
}

func reportServeLayers(rep *report, untraced, traced session, s *sink, shed int64, heapPeak float64, loads []float64) {
	ran, hits := executed(traced)
	var submit, hit, engine []float64
	for _, x := range ran {
		submit = append(submit, x.submit.Seconds()*1e3)
		engine = append(engine, engineWall(x))
	}
	for _, x := range hits {
		hit = append(hit, x.submit.Seconds()*1e3)
	}
	done := len(ran) + len(hits)

	// Queue wait: job-admitted to the first job-started event of a job.
	admitted := map[string]int64{}
	var wait, commits []float64
	retries := 0
	s.mu.Lock()
	for _, e := range s.events {
		switch e.Kind {
		case metrics.EventJobAdmitted:
			admitted[e.Detail] = e.UnixNano
		case metrics.EventJobStarted:
			if t, ok := admitted[e.Detail]; ok {
				wait = append(wait, float64(e.UnixNano-t)/1e9)
				delete(admitted, e.Detail)
			}
		case metrics.EventJobRetried:
			retries++
		case metrics.EventCheckpoint:
			commits = append(commits, float64(e.WallNS)/1e6)
		}
	}
	phases := append([]metrics.PhaseSample(nil), s.phases...)
	var msgs, bytes, retx float64
	for _, l := range s.links {
		msgs += float64(l.Msgs)
		bytes += float64(l.Bytes)
		retx += float64(l.Retransmits)
	}
	s.mu.Unlock()

	rep.add("serve.submit_ms_p50", "ms", median(submit), len(submit))
	rep.add("serve.hit_ms_p50", "ms", median(hit), len(hit))
	rep.add("serve.queue_wait_s_p50", "s", median(wait), len(wait))
	rep.add("serve.engine_s_p50", "s", median(engine), len(engine))
	rep.add("serve.cache_hit_ratio", "frac", ratio(float64(len(hits)), float64(done)), done)
	rep.add("serve.shed", "count", float64(shed), done)
	rep.add("serve.retries", "count", float64(retries), done)
	rep.add("checkpoint.commit_ms_p50", "ms", median(commits), len(commits))
	rep.add("checkpoint.commit_ms_p90", "ms", quantile(commits, 0.9), len(commits))

	// One engine run per executed job; phase samples of concurrent jobs
	// interleave, so they aggregate as one slice.
	coreMetrics(rep, [][]metrics.PhaseSample{phases}, len(ran), false)
	runs := float64(len(ran))
	rep.add("comm.msgs", "count", ratio(msgs, runs), len(ran))
	rep.add("comm.bytes", "B", ratio(bytes, runs), len(ran))
	rep.add("comm.retransmits", "count", ratio(retx, runs), len(ran))
	rep.add("core.trace_overhead_frac", "frac", traceOverhead(untraced, traced), len(ran))
	rep.add("runtime.heap_peak_mb", "MB", heapPeak, 1)
	rep.add("runtime.gc_pause_ms", "ms", ratio(float64(traced.pauseNS)/1e6, float64(done)), done)
	rep.add("graph.load_s", "s", median(loads), len(loads))
}

// traceOverhead pairs the executed jobs of the two sessions by canonical
// spec (both follow the same plan) and returns the median relative growth
// of engine wall time from the untraced to the traced session.
func traceOverhead(untraced, traced session) float64 {
	base := map[serve.JobSpec]float64{}
	ran, _ := executed(untraced)
	for _, x := range ran {
		base[x.spec.Canonical()] = x.status.Result.WallSeconds
	}
	var growth []float64
	ran, _ = executed(traced)
	for _, x := range ran {
		if b, ok := base[x.spec.Canonical()]; ok && b > 0 {
			growth = append(growth, x.status.Result.WallSeconds/b-1)
		}
	}
	return median(growth)
}
