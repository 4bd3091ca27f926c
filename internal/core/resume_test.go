package core_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hetgraph/internal/apps"
	"hetgraph/internal/checkpoint"
	"hetgraph/internal/core"
	"hetgraph/internal/gen"
	"hetgraph/internal/seqref"
)

// durableOpts is chaosOpts plus a durable store: checkpoints flush to dir,
// and resume asks for a cold start from it.
func durableOpts(iters, ckEvery int, dir, plan string, resume bool, t testing.TB) (core.Options, core.Options) {
	t.Helper()
	opt0, opt1 := chaosOpts(iters, ckEvery, plan, t)
	opt0.CheckpointDir = dir
	opt0.Resume = resume
	return opt0, opt1
}

// TestCrashRestartResumePageRank is the tentpole acceptance property: a run
// whose durable commit fails mid-computation aborts like a crash, and a
// fresh process (here: a fresh app instance and engine) resumes from the
// on-disk store and produces the sequential-oracle result.
func TestCrashRestartResumePageRank(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	const iters = 8
	want := seqref.ClassicPageRank(g, 0.85, iters)
	dir := t.TempDir()

	// Phase 1: the commit of superstep 3's checkpoint hits an injected
	// fsync failure. The storage path is shared, so the run must abort with
	// the store error — not degrade to a single device.
	app := apps.NewPageRank()
	opt0, opt1 := durableOpts(iters, 1, dir, "rank0:iofail@3:sync", false, t)
	_, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
	var serr *checkpoint.StoreError
	if !errors.As(err, &serr) {
		t.Fatalf("faulted commit: %v, want wrapped *checkpoint.StoreError", err)
	}

	// Phase 2: restart. A brand-new app resumes from the newest on-disk
	// generation (superstep 2) and finishes the remaining supersteps.
	app2 := apps.NewPageRank()
	opt0, opt1 = durableOpts(iters, 1, dir, "", true, t)
	res, err := core.RunF32Hetero(app2, g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DiskResumed {
		t.Fatal("result does not record the disk resume")
	}
	if res.ResumedSuperstep != 2 {
		t.Fatalf("ResumedSuperstep = %d, want 2 (last committed boundary)", res.ResumedSuperstep)
	}
	if res.Iterations != iters {
		t.Fatalf("Iterations = %d, want %d (absolute supersteps)", res.Iterations, iters)
	}
	for v := range want {
		diff := math.Abs(float64(app2.Ranks[v] - want[v]))
		if diff > 2e-3*math.Max(1, float64(want[v])) {
			t.Fatalf("rank[%d] = %v, want %v (diff %v)", v, app2.Ranks[v], want[v], diff)
		}
	}
}

// TestCrashRestartResumePageRankBitEqual: a crashed and resumed 2-rank
// PageRank run ends bit-equal to the uninterrupted run, not merely within
// the oracle's tolerance. The locking rank folds its planned lanes in
// source order and the pipelined rank sorts its lanes; either way the
// fold order is a function of the restored state, never of the crash.
func TestCrashRestartResumePageRankBitEqual(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	const iters = 8

	whole := apps.NewPageRank()
	opt0, opt1 := durableOpts(iters, 1, t.TempDir(), "", false, t)
	if _, err := core.RunF32Hetero(whole, g, assign, opt0, opt1); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opt0, opt1 = durableOpts(iters, 1, dir, "rank0:iofail@4:sync", false, t)
	if _, err := core.RunF32Hetero(apps.NewPageRank(), g, assign, opt0, opt1); err == nil {
		t.Fatal("faulted commit did not abort the run")
	}
	resumed := apps.NewPageRank()
	opt0, opt1 = durableOpts(iters, 1, dir, "", true, t)
	res, err := core.RunF32Hetero(resumed, g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DiskResumed || res.ResumedSuperstep == 0 {
		t.Fatalf("DiskResumed=%v ResumedSuperstep=%d, want a mid-run resume", res.DiskResumed, res.ResumedSuperstep)
	}
	for v := range whole.Ranks {
		if math.Float32bits(resumed.Ranks[v]) != math.Float32bits(whole.Ranks[v]) {
			t.Fatalf("rank[%d] bits %08x after resume, %08x uninterrupted", v,
				math.Float32bits(resumed.Ranks[v]), math.Float32bits(whole.Ranks[v]))
		}
	}
}

// TestCrashRestartResumeCorruptNewestFallsBack: the newest on-disk
// generation is deliberately corrupted (a torn write that the commit never
// noticed); resume must fall back to the previous generation and still
// reach the oracle result.
func TestCrashRestartResumeCorruptNewestFallsBack(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	const iters = 8
	want := seqref.ClassicPageRank(g, 0.85, iters)
	dir := t.TempDir()

	// Superstep 2's commit is torn (silently half-written, "successful");
	// superstep 3's commit fails hard, crashing the run.
	app := apps.NewPageRank()
	opt0, opt1 := durableOpts(iters, 1, dir, "rank0:torn@2;rank0:iofail@3:sync", false, t)
	_, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
	var serr *checkpoint.StoreError
	if !errors.As(err, &serr) {
		t.Fatalf("faulted commit: %v, want wrapped *checkpoint.StoreError", err)
	}

	app2 := apps.NewPageRank()
	opt0, opt1 = durableOpts(iters, 1, dir, "", true, t)
	res, err := core.RunF32Hetero(app2, g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	// The torn superstep-2 generation is newest on disk but unverifiable;
	// the store must fall back to superstep 1.
	if res.ResumedSuperstep != 1 {
		t.Fatalf("ResumedSuperstep = %d, want 1 (fallback past torn generation)", res.ResumedSuperstep)
	}
	for v := range want {
		diff := math.Abs(float64(app2.Ranks[v] - want[v]))
		if diff > 2e-3*math.Max(1, float64(want[v])) {
			t.Fatalf("rank[%d] = %v, want %v", v, app2.Ranks[v], want[v])
		}
	}
}

// TestCrashRestartResumeFrontierApps covers the moving-frontier apps: the
// restored per-rank frontiers must be exact for BFS levels, SSSP distances,
// and CC labels to reach their fixed points after a cold start.
func TestCrashRestartResumeFrontierApps(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)

	t.Run("SSSP", func(t *testing.T) {
		want := seqref.ClassicSSSP(g, 0)
		dir := t.TempDir()
		app := apps.NewSSSP(0)
		opt0, opt1 := durableOpts(core.DefaultMaxIterations, 1, dir, "rank0:iofail@2:write", false, t)
		if _, err := core.RunF32Hetero(app, g, assign, opt0, opt1); err == nil {
			t.Fatal("faulted commit did not abort the run")
		}
		app2 := apps.NewSSSP(0)
		opt0, opt1 = durableOpts(core.DefaultMaxIterations, 1, dir, "", true, t)
		res, err := core.RunF32Hetero(app2, g, assign, opt0, opt1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged || !res.DiskResumed {
			t.Fatalf("Converged=%v DiskResumed=%v, want true/true", res.Converged, res.DiskResumed)
		}
		for v := range want {
			if app2.Dist[v] != want[v] {
				t.Fatalf("dist[%d] = %v, want %v", v, app2.Dist[v], want[v])
			}
		}
	})

	t.Run("BFS", func(t *testing.T) {
		want := seqref.ClassicBFS(g, 0)
		dir := t.TempDir()
		app := apps.NewBFS(0)
		opt0, opt1 := durableOpts(core.DefaultMaxIterations, 1, dir, "rank0:iofail@2:write", false, t)
		if _, err := core.RunF32Hetero(app, g, assign, opt0, opt1); err == nil {
			t.Fatal("faulted commit did not abort the run")
		}
		app2 := apps.NewBFS(0)
		opt0, opt1 = durableOpts(core.DefaultMaxIterations, 1, dir, "", true, t)
		res, err := core.RunF32Hetero(app2, g, assign, opt0, opt1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("resumed BFS did not converge")
		}
		for v := range want {
			if app2.Levels[v] != want[v] {
				t.Fatalf("level[%d] = %d, want %d", v, app2.Levels[v], want[v])
			}
		}
	})

	t.Run("CC", func(t *testing.T) {
		// Min-label propagation matches the union-find WCC oracle only on a
		// symmetrized graph (it follows directed edges), so CC gets its own.
		cg, err := gen.Community(gen.CommunityConfig{N: 600, Communities: 6, IntraDeg: 2, InterFrac: 0.02, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		cassign := chaosAssign(t, cg)
		want := seqref.ClassicWCC(cg)
		dir := t.TempDir()
		app := apps.NewConnectedComponents()
		opt0, opt1 := durableOpts(core.DefaultMaxIterations, 1, dir, "rank0:iofail@2:write", false, t)
		if _, err := core.RunF32Hetero(app, cg, cassign, opt0, opt1); err == nil {
			t.Fatal("faulted commit did not abort the run")
		}
		app2 := apps.NewConnectedComponents()
		opt0, opt1 = durableOpts(core.DefaultMaxIterations, 1, dir, "", true, t)
		res, err := core.RunF32Hetero(app2, cg, cassign, opt0, opt1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("resumed CC did not converge")
		}
		// Labels are canonical minimum vertex IDs: compare per-vertex.
		for v := range want {
			if app2.Labels[v] != float32(want[v]) {
				t.Fatalf("label[%d] = %v, want %v", v, app2.Labels[v], want[v])
			}
		}
	})
}

// TestResumeOptionValidation: the new durability options fail fast with
// typed errors instead of surfacing mid-run.
func TestResumeOptionValidation(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	var ioe *core.InvalidOptionsError

	t.Run("DirWithoutEvery", func(t *testing.T) {
		app := apps.NewPageRank()
		opt0, opt1 := chaosOpts(4, 0, "", t)
		opt0.CheckpointDir = t.TempDir()
		_, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
		if !errors.As(err, &ioe) {
			t.Fatalf("CheckpointDir without CheckpointEvery: %v, want *core.InvalidOptionsError", err)
		}
	})

	t.Run("ResumeWithoutDir", func(t *testing.T) {
		app := apps.NewPageRank()
		opt0, opt1 := chaosOpts(4, 1, "", t)
		opt0.Resume = true
		_, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
		if !errors.As(err, &ioe) {
			t.Fatalf("Resume without CheckpointDir: %v, want *core.InvalidOptionsError", err)
		}
	})

	t.Run("ResumeEmptyStore", func(t *testing.T) {
		app := apps.NewPageRank()
		opt0, opt1 := durableOpts(4, 1, t.TempDir(), "", true, t)
		_, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
		if !errors.As(err, &ioe) || ioe.Field != "Resume" {
			t.Fatalf("Resume from empty store: %v, want *core.InvalidOptionsError{Field: Resume}", err)
		}
	})

	t.Run("UnwritableDir", func(t *testing.T) {
		// A path under a regular file cannot be created, root or not.
		blocker := filepath.Join(t.TempDir(), "file")
		if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		app := apps.NewPageRank()
		opt0, opt1 := durableOpts(4, 1, filepath.Join(blocker, "sub"), "", false, t)
		_, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
		if !errors.As(err, &ioe) || ioe.Field != "CheckpointDir" {
			t.Fatalf("unwritable dir: %v, want *core.InvalidOptionsError{Field: CheckpointDir}", err)
		}
	})

	t.Run("BadRetain", func(t *testing.T) {
		app := apps.NewPageRank()
		opt0, opt1 := durableOpts(4, 1, t.TempDir(), "", false, t)
		opt0.CheckpointRetain = 1
		_, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
		if !errors.As(err, &ioe) {
			t.Fatalf("CheckpointRetain 1: %v, want *core.InvalidOptionsError", err)
		}
	})
}

// TestRestartRecoveryAfterDegradedRun: durable checkpointing composes with
// the PR-2 degradation path — a run that degrades after a peer failure
// still commits its checkpoints, and its store remains resumable.
func TestRestartRecoveryAfterDegradedRun(t *testing.T) {
	g := chaosGraph(t)
	assign := chaosAssign(t, g)
	const iters = 6
	want := seqref.ClassicPageRank(g, 0.85, iters)
	dir := t.TempDir()

	app := apps.NewPageRank()
	opt0, opt1 := durableOpts(iters, 1, dir, "rank1:drop@3", false, t)
	res, err := core.RunF32Hetero(app, g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.FailedRank != 1 {
		t.Fatalf("Degraded=%v FailedRank=%d, want degraded rank 1", res.Degraded, res.FailedRank)
	}

	// The store still holds the pre-failure boundary checkpoints: a fresh
	// resume from disk re-runs the tail and reaches the same fixed point.
	app2 := apps.NewPageRank()
	opt0, opt1 = durableOpts(iters, 1, dir, "", true, t)
	res2, err := core.RunF32Hetero(app2, g, assign, opt0, opt1)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.DiskResumed || res2.ResumedGeneration == 0 {
		t.Fatalf("DiskResumed=%v ResumedGeneration=%d, want resumed from a positive generation",
			res2.DiskResumed, res2.ResumedGeneration)
	}
	if res2.Iterations != iters {
		t.Fatalf("Iterations = %d, want %d", res2.Iterations, iters)
	}
	for v := range want {
		diff := math.Abs(float64(app2.Ranks[v] - want[v]))
		if diff > 2e-3*math.Max(1, float64(want[v])) {
			t.Fatalf("rank[%d] = %v, want %v", v, app2.Ranks[v], want[v])
		}
	}
}
