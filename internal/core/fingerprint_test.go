package core_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetgraph/internal/apps"
	"hetgraph/internal/checkpoint"
	"hetgraph/internal/core"
	"hetgraph/internal/gen"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/partition"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// fingerprintGolden is the recorded behaviour fingerprint of the engines.
const fingerprintGolden = "testdata/fingerprint.golden"

// fpResult renders everything a single-device run reports except wall
// time. Floats print with %v, the shortest exact representation, so a
// one-ulp change in simulated time shows.
func fpResult(res core.Result) string {
	return fmt.Sprintf("iterations=%d converged=%v sim=%v\nphases=%+v\ncounters=%+v\n",
		res.Iterations, res.Converged, res.SimSeconds, res.Phases, res.Counters)
}

// fpHetero renders everything a group run reports except wall time and the
// wire-level link statistics.
func fpHetero(res core.HeteroResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iterations=%d converged=%v sim=%v exec=%v comm=%v\n",
		res.Iterations, res.Converged, res.SimSeconds, res.ExecSeconds, res.CommSeconds)
	for r, d := range res.Dev {
		fmt.Fprintf(&b, "dev%d: iterations=%d converged=%v\ndev%d counters=%+v\n", r, d.Iterations, d.Converged, r, d.Counters)
	}
	fmt.Fprintf(&b, "recovery: iterations=%d converged=%v\nrecovery counters=%+v\n",
		res.Recovery.Iterations, res.Recovery.Converged, res.Recovery.Counters)
	fmt.Fprintf(&b, "degraded=%v failed_rank=%d failed_ranks=%v failed_superstep=%d resumed_superstep=%d degraded_supersteps=%d\n",
		res.Degraded, res.FailedRank, res.FailedRanks, res.FailedSuperstep, res.ResumedSuperstep, res.DegradedSupersteps)
	fmt.Fprintf(&b, "disk_resumed=%v resumed_generation=%d healed=%v rejoin_superstep=%d\n",
		res.DiskResumed, res.ResumedGeneration, res.Healed, res.RejoinSuperstep)
	fmt.Fprintf(&b, "partitioned=%v partition_superstep=%d majority=%v minority=%v\n",
		res.Partitioned, res.PartitionSuperstep, res.PartitionMajority, res.PartitionMinority)
	fmt.Fprintf(&b, "suspects=%v soft_degraded=%v soft_degrade_superstep=%d rehabilitated=%v rehabilitate_superstep=%d\n",
		res.SuspectRanks, res.SoftDegraded, res.SoftDegradeSuperstep, res.Rehabilitated, res.RehabilitateSuperstep)
	return b.String()
}

// fpState hashes an f32 app's final vertex state with FNV-1a.
func fpState(t *testing.T, app checkpoint.Snapshotter) string {
	t.Helper()
	state, err := app.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(state)
	return fmt.Sprintf("state=%016x\n", h.Sum64())
}

// fpApp is an f32 app that can also be fingerprinted by its state.
type fpApp interface {
	core.AppF32
	checkpoint.Snapshotter
}

// TestBehaviourFingerprint runs a fixed matrix of single-device, group,
// degrade, heal, partition, straggler, resume and structured-message runs
// and compares everything they report (simulated times to the last bit,
// counters, lifecycle fields, final vertex state) with a recorded golden.
// A change that is meant to keep behaviour must leave the golden
// byte-identical; run with -update to record a deliberate change.
func TestBehaviourFingerprint(t *testing.T) {
	g := chaosGraph(t)
	cpu := core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, Vectorized: true}
	mic := core.Options{Dev: machine.MIC(), Scheme: core.SchemePipelined, Vectorized: true}
	f32Apps := []struct {
		name  string
		app   func() fpApp
		dir   core.Direction
		iters int
	}{
		{"pagerank", func() fpApp { return apps.NewPageRank() }, core.DirectionPush, 10},
		{"bfs-push", func() fpApp { return apps.NewBFS(0) }, core.DirectionPush, 40},
		{"bfs-auto", func() fpApp { return apps.NewBFS(0) }, core.DirectionAuto, 40},
		{"sssp", func() fpApp { return apps.NewSSSP(0) }, core.DirectionPush, 40},
		{"cc", func() fpApp { return apps.NewConnectedComponents() }, core.DirectionPush, 40},
	}

	var out strings.Builder
	record := func(name, fp string) {
		fmt.Fprintf(&out, "== %s\n%s", name, fp)
	}
	hetero := func(name string, app fpApp, assign []int32, opts ...core.Options) {
		t.Helper()
		res, err := core.RunF32Hetero(app, g, assign, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		record(name, fpHetero(res)+fpState(t, app))
	}

	for _, a := range f32Apps {
		for _, dev := range []struct {
			name string
			opt  core.Options
		}{{"cpu-locking", cpu}, {"mic-pipelined", mic}} {
			opt := dev.opt
			opt.Direction = a.dir
			opt.MaxIterations = a.iters
			app := a.app()
			res, err := core.RunF32(app, g, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", a.name, dev.name, err)
			}
			record("single "+a.name+"/"+dev.name, fpResult(res)+fpState(t, app))
		}
	}

	assign2 := chaosAssign(t, g)
	assign3 := nrankAssign(t, g, 3)
	assign4 := nrankAssign(t, g, 4)

	opt0, opt1 := chaosOpts(10, 0, "", t)
	hetero("clean 2-rank pagerank", apps.NewPageRank(), assign2, opt0, opt1)
	opt0, opt1 = chaosOpts(40, 0, "", t)
	hetero("clean 2-rank sssp", apps.NewSSSP(0), assign2, opt0, opt1)
	hetero("clean 3-rank pagerank", apps.NewPageRank(), assign3, nrankOpts(t, 3, 10, 0, "")...)
	opts := nrankOpts(t, 3, 40, 0, "")
	for r := range opts {
		opts[r].Direction = core.DirectionAuto
	}
	hetero("clean 3-rank bfs-auto", apps.NewBFS(0), assign3, opts...)

	opt0, opt1 = chaosOpts(10, 2, "rank0:drop@5", t)
	hetero("lone survivor pagerank rank0:drop@5", apps.NewPageRank(), assign2, opt0, opt1)
	opt0, opt1 = chaosOpts(40, 2, "rank0:drop@2", t)
	hetero("lone survivor sssp rank0:drop@2", apps.NewSSSP(0), assign2, opt0, opt1)
	opt0, opt1 = chaosOpts(10, 1, "rank1:flaky@3x2", t)
	opt0.Rejoin = true
	hetero("lone survivor heals pagerank rank1:flaky@3x2", apps.NewPageRank(), assign2, opt0, opt1)

	hetero("4-rank pagerank rank1:drop@3;rank3:drop@3", apps.NewPageRank(), assign4,
		nrankOpts(t, 4, 10, 1, "rank1:drop@3;rank3:drop@3")...)

	opts = nrankOpts(t, 3, 10, 1, "partition@3:{0,1}|{2};heal@6")
	opts[0].Rejoin = true
	hetero("3-rank pagerank partition heal", apps.NewPageRank(), assign3, opts...)

	opts = stragglerOpts(t, 12, "rank1:gslow@0x6:100ms", core.StragglerDemoteRehab)
	hetero("4-rank pagerank slow demote-rehab", apps.NewPageRank(), assign4, opts...)

	dir := filepath.Join(t.TempDir(), "ckpt")
	opt0, opt1 = durableOpts(4, 2, dir, "", false, t)
	hetero("durable sssp first half", apps.NewSSSP(0), assign2, opt0, opt1)
	opt0, opt1 = durableOpts(40, 2, dir, "", true, t)
	hetero("durable sssp resumed", apps.NewSSSP(0), assign2, opt0, opt1)

	fingerprintGeneric(t, record)

	got := out.String()
	if *updateGolden {
		if err := os.WriteFile(fingerprintGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var a, b string
			if i < len(gl) {
				a = gl[i]
			}
			if i < len(wl) {
				b = wl[i]
			}
			if a != b {
				t.Errorf("fingerprint line %d:\n got: %s\nwant: %s", i+1, a, b)
			}
		}
	}
}

// fingerprintGeneric adds the structured-message engine's runs: label
// propagation and semi-clustering, single-device and on a 2-rank group.
func fingerprintGeneric(t *testing.T, record func(name, fp string)) {
	t.Helper()
	g, err := gen.Community(gen.CommunityConfig{N: 400, Communities: 4, IntraDeg: 3, InterFrac: 0.05, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	assign, err := partition.Make(partition.MethodRoundRobin, g, partition.Ratio{A: 1, B: 1})
	if err != nil {
		t.Fatal(err)
	}
	cpu := core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, MaxIterations: 6}
	mic := core.Options{Dev: machine.MIC(), Scheme: core.SchemePipelined, MaxIterations: 6}
	single := func(name string, run func(*graph.CSR, core.Options) (core.Result, error)) {
		t.Helper()
		res, err := run(g, mic)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		record(name, fpResult(res))
	}
	group := func(name string, run func(*graph.CSR, []int32, ...core.Options) (core.HeteroResult, error)) {
		t.Helper()
		res, err := run(g, assign, cpu, mic)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		record(name, fpHetero(res))
	}
	single("single lpa/mic-pipelined", func(g *graph.CSR, o core.Options) (core.Result, error) {
		return core.RunGeneric[apps.LPAMsg](apps.NewLabelPropagation(), g, o)
	})
	single("single semicluster/mic-pipelined", func(g *graph.CSR, o core.Options) (core.Result, error) {
		return core.RunGeneric[apps.SCMsg](apps.NewSemiClustering(3, 4, 0.2), g, o)
	})
	group("2-rank lpa", func(g *graph.CSR, a []int32, o ...core.Options) (core.HeteroResult, error) {
		return core.RunGenericHetero[apps.LPAMsg](apps.NewLabelPropagation(), g, a, o...)
	})
	group("2-rank semicluster", func(g *graph.CSR, a []int32, o ...core.Options) (core.HeteroResult, error) {
		return core.RunGenericHetero[apps.SCMsg](apps.NewSemiClustering(3, 4, 0.2), g, a, o...)
	})
}
