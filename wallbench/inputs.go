package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sort"
	"sync"
	"time"

	"hetgraph/internal/apps"
	"hetgraph/internal/core"
	"hetgraph/internal/gen"
	"hetgraph/internal/graph"
	"hetgraph/internal/seqref"
)

// Input sizes. pagerank-mic uses the 200K-vertex power-law graph of the
// ROADMAP baseline. sssp-hetero uses half that, so that its metis set-up and
// enough runs to take a steady median fit in one run of the benchmark.
// serve-mix keeps a smaller graph resident so that fixed per-job costs
// dominate.
const (
	pagerankVertices = 200_000
	ssspVertices     = 100_000
	serveVertices    = 10_000
)

// Each workload repeats its set-up at least minSetupReps times, and more
// while the repetitions take under setupBudget, up to maxSetupReps; setup_s
// is the median.
const (
	minSetupReps = 3
	maxSetupReps = 100
	setupBudget  = 2 * time.Second
)

// minMeanDegree is the least mean out-degree a workload graph may have.
// gen.DefaultPowerLaw targets 19, but its Pareto tail is capped at n-1
// edges per vertex, so a seed that draws an extreme degree loses the mass
// above the cap: at 200K vertices most seeds give 3.5M-3.7M edges, and a few
// give under 1M. Those few are a different workload.
const minMeanDegree = 18

// powerLaw generates the workload graph from the benchmark seed: the
// gen.DefaultPowerLaw shape with n vertices and at least minMeanDegree*n
// edges, and uniform weights in (0, 100] when weighted. A generator seed
// that gives fewer edges is replaced by the next one derived from seed.
func powerLaw(n int, seed int64, weighted bool) (*graph.CSR, error) {
	cfg := gen.DefaultPowerLaw(n)
	for attempt := int64(0); attempt < 64; attempt++ {
		cfg.Seed = seed*64 + attempt
		g, err := gen.PowerLaw(cfg)
		if err != nil {
			return nil, err
		}
		if g.NumEdges() < int64(minMeanDegree*n) {
			continue
		}
		if weighted {
			return gen.WithWeights(g, 0, 100, cfg.Seed)
		}
		return g, nil
	}
	return nil, fmt.Errorf("no power-law graph with %d vertices and %d+ edges from seed %d", n, minMeanDegree*n, seed)
}

// hubSources draws k distinct source vertices from the seed among the
// vertices whose out-degree is at least twice the mean, so every
// source-rooted run reaches most of the graph.
func hubSources(g *graph.CSR, seed int64, k int) []graph.VertexID {
	n := g.NumVertices()
	floor := 2 * g.NumEdges() / int64(n)
	var hubs []graph.VertexID
	for v := 0; v < n; v++ {
		if int64(g.OutDegree(graph.VertexID(v))) >= floor {
			hubs = append(hubs, graph.VertexID(v))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(hubs), func(i, j int) { hubs[i], hubs[j] = hubs[j], hubs[i] })
	return hubs[:min(k, len(hubs))]
}

// ssspWork is the work a source-rooted run should do: its messages per edge
// and its superstep count, as the sequential reference counts them, each
// within tol (relative).
type ssspWork struct {
	msgsPerEdge, supersteps, tol float64
}

// ssspSources returns k seeded hubs whose SSSP run does the given work.
// SSSP work depends strongly on the source: from random hubs of one graph a
// run sends from 3 to 7 messages per edge over 18 to 32 supersteps, so
// source-rooted workloads fix the work instead. It tries at most limit hubs
// and, if fewer than k qualify, fills up with the closest of the rest.
func ssspSources(g *graph.CSR, seed int64, k, limit int, w ssspWork) ([]graph.VertexID, error) {
	type cand struct {
		v   graph.VertexID
		off float64
	}
	var ok, rest []cand
	for _, v := range hubSources(g, seed, limit) {
		it, c, err := seqref.RunF32Seq(apps.NewSSSP(v), g, core.DefaultMaxIterations)
		if err != nil {
			return nil, err
		}
		x := cand{v, math.Max(
			math.Abs(float64(c.Messages)/float64(g.NumEdges())/w.msgsPerEdge-1),
			math.Abs(float64(it)/w.supersteps-1))}
		if x.off <= w.tol {
			if ok = append(ok, x); len(ok) == k {
				break
			}
		} else {
			rest = append(rest, x)
		}
	}
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].off < rest[j].off })
	ok = append(ok, rest[:min(k-len(ok), len(rest))]...)
	if len(ok) == 0 {
		return nil, fmt.Errorf("graph has no hub sources")
	}
	srcs := make([]graph.VertexID, len(ok))
	for i, x := range ok {
		srcs[i] = x.v
	}
	return srcs, nil
}

// setupTimes repeats fn under a "bench.setup" span each and returns the
// wall seconds of every repetition. release, if not nil, runs untimed after
// every repetition but the last, whose result the workload keeps.
func setupTimes(tr *tracer, fn func(parent int) error, release func()) ([]float64, error) {
	var times []float64
	var total float64
	for i := 0; i < maxSetupReps && (i < minSetupReps || total < setupBudget.Seconds()); i++ {
		if i > 0 && release != nil {
			release()
		}
		runtime.GC()
		id := tr.open("bench.setup", 0)
		t0 := time.Now()
		err := fn(id)
		times = append(times, time.Since(t0).Seconds())
		total += times[i]
		tr.close(id)
		if err != nil {
			return nil, err
		}
	}
	return times, nil
}

// loadGraph is the graph layer's set-up: read the binary CSR file the
// benchmark wrote. It returns the graph and the load's wall seconds.
func loadGraph(tr *tracer, parent int, path string) (*graph.CSR, float64, error) {
	id := tr.open("graph.load", parent)
	t0 := time.Now()
	g, err := graph.LoadBinaryFile(path)
	d := time.Since(t0).Seconds()
	tr.close(id)
	if err != nil {
		return nil, 0, fmt.Errorf("loading %s: %w", path, err)
	}
	return g, d, nil
}

// heapWatch samples the live heap every few milliseconds until stopped and
// reports the peak.
type heapWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []runtimemetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			runtimemetrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak live heap in MiB.
func (h *heapWatch) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// memDelta measures what fn allocates and how long the GC paused the world
// while it ran.
func memDelta(fn func()) (allocBytes, pauseNS uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc, b.PauseTotalNs - a.PauseTotalNs
}
