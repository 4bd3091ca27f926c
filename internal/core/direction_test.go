package core_test

import (
	"fmt"
	"math"
	"testing"

	"hetgraph/internal/apps"
	"hetgraph/internal/core"
	"hetgraph/internal/gen"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/seqref"
	"hetgraph/internal/trace"
)

// directionGraphs returns the oracle-equivalence graph set: a skewed
// power-law graph (the case direction switching exists for — the frontier
// blows up to a hub-dominated majority within a few hops) and a seeded
// uniform random graph (narrow frontiers, the push-biased case).
func directionGraphs(t testing.TB) map[string]*graph.CSR {
	t.Helper()
	pl, err := gen.PowerLaw(gen.PowerLawConfig{N: 900, MeanDeg: 8, Alpha: 2.1, FrontBias: 0.7, Locality: 0.6, LocalWindow: 0.05, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := gen.Uniform(600, 2400, 72)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.CSR{"powerlaw": pl, "uniform": uni}
}

func directions() []core.Direction {
	return []core.Direction{core.DirectionPush, core.DirectionPull, core.DirectionAuto}
}

// TestDirectionOracleBFS: push, pull, and auto single-device BFS all produce
// exactly the classic level assignment, on both graph shapes. Pull recomputes
// each frontier parent's message from its state, so the reduced multiset —
// and therefore every level — is identical, not merely equivalent.
func TestDirectionOracleBFS(t *testing.T) {
	for name, g := range directionGraphs(t) {
		want := seqref.ClassicBFS(g, 0)
		for _, dir := range directions() {
			t.Run(fmt.Sprintf("%s/%s", name, dir), func(t *testing.T) {
				app := apps.NewBFS(0)
				res, err := core.RunF32(app, g, core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, Vectorized: true, Direction: dir})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatal("did not converge")
				}
				for v := range want {
					if app.Levels[v] != want[v] {
						t.Fatalf("level[%d] = %d, want %d", v, app.Levels[v], want[v])
					}
				}
				if dir == core.DirectionPull && res.Counters.PullSupersteps == 0 {
					t.Fatal("pull run recorded no pull supersteps")
				}
			})
		}
	}
}

// TestDirectionOracleSSSP: same property for the weighted min-fold app,
// where pull cannot early-exit and must fold every frontier parent.
func TestDirectionOracleSSSP(t *testing.T) {
	for name, g := range directionGraphs(t) {
		wg, err := gen.WithWeights(g, 0, 10, 73)
		if err != nil {
			t.Fatal(err)
		}
		want := seqref.ClassicSSSP(wg, 0)
		for _, dir := range directions() {
			t.Run(fmt.Sprintf("%s/%s", name, dir), func(t *testing.T) {
				app := apps.NewSSSP(0)
				res, err := core.RunF32(app, wg, core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, Vectorized: true, Direction: dir})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatal("did not converge")
				}
				for v := range want {
					if app.Dist[v] != want[v] {
						t.Fatalf("dist[%d] = %v, want %v", v, app.Dist[v], want[v])
					}
				}
			})
		}
	}
}

// TestDirectionOracleHetero: per-rank autonomous direction decisions stay
// exact in a device group — cut-edge influence always travels as messages,
// so a pulling rank and a pushing rank interoperate within one superstep.
func TestDirectionOracleHetero(t *testing.T) {
	g := directionGraphs(t)["powerlaw"]
	wg, err := gen.WithWeights(g, 0, 10, 74)
	if err != nil {
		t.Fatal(err)
	}
	wantBFS := seqref.ClassicBFS(wg, 0)
	wantSSSP := seqref.ClassicSSSP(wg, 0)
	for _, n := range []int{2, 3} {
		assign := nrankAssign(t, wg, n)
		for _, dir := range directions() {
			t.Run(fmt.Sprintf("ranks=%d/%s", n, dir), func(t *testing.T) {
				opts := nrankOpts(t, n, core.DefaultMaxIterations, 0, "")
				for r := range opts {
					opts[r].Direction = dir
				}
				bfs := apps.NewBFS(0)
				if _, err := core.RunF32Hetero(bfs, wg, assign, opts...); err != nil {
					t.Fatal(err)
				}
				for v := range wantBFS {
					if bfs.Levels[v] != wantBFS[v] {
						t.Fatalf("bfs level[%d] = %d, want %d", v, bfs.Levels[v], wantBFS[v])
					}
				}
				sssp := apps.NewSSSP(0)
				if _, err := core.RunF32Hetero(sssp, wg, assign, opts...); err != nil {
					t.Fatal(err)
				}
				for v := range wantSSSP {
					if sssp.Dist[v] != wantSSSP[v] {
						t.Fatalf("sssp dist[%d] = %v, want %v", v, sssp.Dist[v], wantSSSP[v])
					}
				}
			})
		}
	}
}

// TestDirectionDegradedRejoinOracle: an auto-direction group run through a
// flaky-rank fault plan (degrade at superstep 2, rejoin two supersteps
// later) still lands exactly on the classic answer — the direction state is
// reconstructed from app state, not from history the failed rank lost.
func TestDirectionDegradedRejoinOracle(t *testing.T) {
	g := chaosGraph(t)
	want := seqref.ClassicSSSP(g, 0)
	const n = 3
	assign := nrankAssign(t, g, n)
	opts := nrankOpts(t, n, core.DefaultMaxIterations, 1, "rank2:flaky@2x2")
	opts[0].Rejoin = true
	for r := range opts {
		opts[r].Direction = core.DirectionAuto
	}
	app := apps.NewSSSP(0)
	res, err := core.RunF32Hetero(app, g, assign, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Healed {
		t.Fatal("run did not heal despite flaky fault and Rejoin")
	}
	for v := range want {
		if app.Dist[v] != want[v] {
			t.Fatalf("dist[%d] = %v, want %v", v, app.Dist[v], want[v])
		}
	}
}

// TestDirectionAutoSwitchesAndSaves: on a power-law BFS, auto must actually
// switch (trace shows both push and pull supersteps), label every phase
// sample with its superstep's direction, and generate no more messages than
// pure push — the point of the optimization.
func TestDirectionAutoSwitchesAndSaves(t *testing.T) {
	g := directionGraphs(t)["powerlaw"]
	run := func(dir core.Direction, rec *trace.Recorder) machine.Counters {
		app := apps.NewBFS(0)
		res, err := core.RunF32(app, g, core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, Vectorized: true, Direction: dir, Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters
	}
	rec := trace.NewRecorder()
	auto := run(core.DirectionAuto, rec)
	push := run(core.DirectionPush, nil)

	seen := map[string]bool{}
	for _, s := range rec.Samples() {
		if s.Direction == "" {
			t.Fatalf("sample %s/%d/%s has no direction label", s.Device, s.Iteration, s.Phase)
		}
		seen[s.Direction] = true
	}
	if !seen["push"] || !seen["pull"] {
		t.Fatalf("auto run used directions %v, want both push and pull", seen)
	}
	if auto.PullSupersteps == 0 {
		t.Fatal("auto run recorded no pull supersteps")
	}
	if push.PullSupersteps != 0 || push.PullEdgesScanned != 0 {
		t.Fatalf("push run recorded pull work: %d supersteps, %d edges", push.PullSupersteps, push.PullEdgesScanned)
	}
	if auto.Messages > push.Messages {
		t.Fatalf("auto generated %d messages, more than push's %d", auto.Messages, push.Messages)
	}
}

// TestDirectionPullRejectedForPushOnlyApps: explicit pull with an app that
// cannot pull (PageRank, and every generic-message app) is a typed options
// error; auto silently stays push.
func TestDirectionPullRejectedForPushOnlyApps(t *testing.T) {
	g := directionGraphs(t)["uniform"]
	_, err := core.RunF32(apps.NewPageRank(), g, core.Options{Dev: machine.CPU(), Direction: core.DirectionPull, MaxIterations: 2})
	var ioe *core.InvalidOptionsError
	if !asInvalidOptions(err, &ioe) || ioe.Field != "Direction" {
		t.Fatalf("pagerank pull: got %v, want *InvalidOptionsError on Direction", err)
	}
	// Auto with a push-only app runs, pushes, and labels nothing.
	res, err := core.RunF32(apps.NewPageRank(), g, core.Options{Dev: machine.CPU(), Direction: core.DirectionAuto, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.PullSupersteps != 0 {
		t.Fatal("push-only app recorded pull supersteps under auto")
	}
	// Unknown direction values are rejected up front.
	if _, err := core.RunF32(apps.NewBFS(0), g, core.Options{Dev: machine.CPU(), Direction: core.Direction(9)}); err == nil {
		t.Fatal("accepted unknown Direction")
	}
}

func asInvalidOptions(err error, target **core.InvalidOptionsError) bool {
	ioe, ok := err.(*core.InvalidOptionsError)
	if ok {
		*target = ioe
	}
	return ok
}

// TestPageRankByteDeterminism: repeated PageRank runs — multi-threaded,
// locking and pipelined, single device and 2- and 3-rank groups — produce
// bit-identical ranks, because the engine folds its float32 sums in a
// canonical order: a locking rank's scatter plan lays each lane out in
// source order followed by received messages in peer order, a pipelined
// rank sorts its lanes, and the remote combiner folds each destination's
// values in sorted order.
func TestPageRankByteDeterminism(t *testing.T) {
	g := directionGraphs(t)["powerlaw"]
	const iters = 15
	bits := func(rs []float32) []uint32 {
		out := make([]uint32, len(rs))
		for i, r := range rs {
			out[i] = math.Float32bits(r)
		}
		return out
	}
	single := func(scheme core.Scheme) []uint32 {
		app := apps.NewPageRank()
		if _, err := core.RunF32(app, g, core.Options{Dev: machine.CPU(), Scheme: scheme, Vectorized: true, MaxIterations: iters}); err != nil {
			t.Fatal(err)
		}
		return bits(app.Ranks)
	}
	// hetero runs an n-rank group; allLocking plans every rank, so each
	// one places messages from several planned peers.
	hetero := func(n int, allLocking bool) []uint32 {
		assign := nrankAssign(t, g, n)
		app := apps.NewPageRank()
		opts := nrankOpts(t, n, iters, 0, "")
		if allLocking {
			for r := range opts {
				opts[r].Scheme = core.SchemeLocking
			}
		}
		if _, err := core.RunF32Hetero(app, g, assign, opts...); err != nil {
			t.Fatal(err)
		}
		return bits(app.Ranks)
	}
	for name, run := range map[string]func() []uint32{
		"locking":   func() []uint32 { return single(core.SchemeLocking) },
		"pipelined": func() []uint32 { return single(core.SchemePipelined) },
		"hetero2":   func() []uint32 { return hetero(2, false) },
		"hetero3":   func() []uint32 { return hetero(3, true) },
	} {
		t.Run(name, func(t *testing.T) {
			want := run()
			for trial := 0; trial < 3; trial++ {
				got := run()
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("trial %d: rank[%d] bits %08x != %08x — float32 fold order leaked", trial, v, got[v], want[v])
					}
				}
			}
		})
	}
}
