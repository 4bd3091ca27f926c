package hetgraph_test

import (
	"math"
	"testing"

	"hetgraph"
)

// The facade tests exercise every public entry point end to end, the way a
// downstream user would.

func TestFacadeGraphConstruction(t *testing.T) {
	b := hetgraph.NewGraphBuilder(4, true)
	b.AddEdge(0, 1, 2)
	b.AddEdge(1, 2, 3)
	b.AddEdge(2, 3, 4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("graph shape wrong: %d/%d", g.NumVertices(), g.NumEdges())
	}
	s := hetgraph.Stats(g)
	if s.NumEdges != 3 {
		t.Error("Stats wrong")
	}
	if hetgraph.PaperExampleGraph().NumEdges() != 28 {
		t.Error("paper example wrong")
	}
}

func TestFacadeGraphIO(t *testing.T) {
	dir := t.TempDir()
	g, err := hetgraph.GenerateUniform(50, 400, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := hetgraph.SaveGraph(dir+"/g.adj", g); err != nil {
		t.Fatal(err)
	}
	g2, err := hetgraph.LoadGraph(dir + "/g.adj")
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Error("round trip lost edges")
	}
}

func TestFacadeGenerators(t *testing.T) {
	pl, err := hetgraph.GeneratePowerLaw(hetgraph.DefaultPowerLaw(2000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hetgraph.AddRandomWeights(pl, 0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := hetgraph.GenerateCommunity(hetgraph.DefaultCommunity(1000)); err != nil {
		t.Fatal(err)
	}
	dag, err := hetgraph.GenerateDAG(hetgraph.DefaultDAG(500, 20000))
	if err != nil {
		t.Fatal(err)
	}
	if !dag.IsDAG() {
		t.Error("DAG generator produced a cycle")
	}
}

func TestFacadeDevices(t *testing.T) {
	if hetgraph.CPU().Threads() != 16 || hetgraph.MIC().Threads() != 240 {
		t.Error("device geometries wrong")
	}
}

func TestFacadeQuickstartFlow(t *testing.T) {
	g, err := hetgraph.GeneratePowerLaw(hetgraph.DefaultPowerLaw(3000))
	if err != nil {
		t.Fatal(err)
	}
	g, err = hetgraph.AddRandomWeights(g, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	app := hetgraph.NewSSSP(0)
	res, err := hetgraph.Run(app, g, hetgraph.Options{
		Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, Vectorized: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.SimSeconds <= 0 {
		t.Fatalf("run failed: %+v", res)
	}
	if app.Dist[0] != 0 {
		t.Error("source distance not 0")
	}
}

func TestFacadeHeteroFlow(t *testing.T) {
	g, err := hetgraph.GeneratePowerLaw(hetgraph.DefaultPowerLaw(3000))
	if err != nil {
		t.Fatal(err)
	}
	assign, err := hetgraph.Partition(hetgraph.PartitionHybrid, g, hetgraph.Ratio{A: 3, B: 5})
	if err != nil {
		t.Fatal(err)
	}
	if hetgraph.CrossEdges(g, assign) <= 0 {
		t.Error("no cross edges on a connected graph")
	}
	dir := t.TempDir()
	if err := hetgraph.SavePartition(dir+"/p.part", assign); err != nil {
		t.Fatal(err)
	}
	loaded, err := hetgraph.LoadPartition(dir + "/p.part")
	if err != nil {
		t.Fatal(err)
	}
	app := hetgraph.NewPageRank()
	res, err := hetgraph.RunF32Hetero(app, g, loaded,
		hetgraph.Options{Dev: hetgraph.CPU(), Scheme: hetgraph.SchemeLocking, Vectorized: true, MaxIterations: 3},
		hetgraph.Options{Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, Vectorized: true, MaxIterations: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 || res.CommSeconds <= 0 {
		t.Fatalf("hetero run wrong: %+v", res)
	}
	var sum float64
	for _, r := range app.Ranks {
		sum += float64(r)
	}
	if math.IsNaN(sum) || sum <= 0 {
		t.Error("ranks corrupted")
	}
}

func TestFacadeOtherApps(t *testing.T) {
	g, err := hetgraph.GenerateUniform(1000, 8000, 4)
	if err != nil {
		t.Fatal(err)
	}
	bfs := hetgraph.NewBFS(0)
	if _, err := hetgraph.Run(bfs, g, hetgraph.Options{Dev: hetgraph.CPU()}); err != nil {
		t.Fatal(err)
	}
	if bfs.Levels[0] != 0 {
		t.Error("BFS source level wrong")
	}
	dag, err := hetgraph.GenerateDAG(hetgraph.DefaultDAG(300, 8000))
	if err != nil {
		t.Fatal(err)
	}
	topo := hetgraph.NewTopoSort()
	if _, err := hetgraph.Run(topo, dag, hetgraph.Options{Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, Vectorized: true}); err != nil {
		t.Fatal(err)
	}
	if !topo.Ordered() {
		t.Error("TopoSort incomplete")
	}
}

func TestFacadeSemiClustering(t *testing.T) {
	g, err := hetgraph.GenerateCommunity(hetgraph.DefaultCommunity(600))
	if err != nil {
		t.Fatal(err)
	}
	sc := hetgraph.NewSemiClustering(3, 4, 0.2)
	res, err := hetgraph.RunSemiClustering(sc, g, hetgraph.Options{
		Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, MaxIterations: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations")
	}
	for v, cl := range sc.Clusters {
		if len(cl) == 0 {
			t.Fatalf("vertex %d clusterless", v)
		}
	}
	assign, err := hetgraph.Partition(hetgraph.PartitionRoundRobin, g, hetgraph.Ratio{A: 2, B: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc2 := hetgraph.NewSemiClustering(3, 4, 0.2)
	hres, err := hetgraph.RunSemiClusteringHetero(sc2, g, assign,
		hetgraph.Options{Dev: hetgraph.CPU(), Scheme: hetgraph.SchemeLocking, MaxIterations: 4},
		hetgraph.Options{Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, MaxIterations: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if hres.Iterations == 0 {
		t.Fatal("hetero SC did not run")
	}
}

func TestFacadeOMPBaseline(t *testing.T) {
	g, err := hetgraph.GenerateUniform(800, 6000, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hetgraph.RunOMP(hetgraph.NewPageRank(), g, hetgraph.MIC(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 || res.SimSeconds <= 0 {
		t.Fatalf("OMP run wrong: %+v", res)
	}
}

func TestFacadePartitionHybridBlocks(t *testing.T) {
	g, err := hetgraph.GeneratePowerLaw(hetgraph.DefaultPowerLaw(2000))
	if err != nil {
		t.Fatal(err)
	}
	assign, err := hetgraph.PartitionHybridBlocks(g, hetgraph.Ratio{A: 1, B: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	var on1 int
	for _, a := range assign {
		if a == 1 {
			on1++
		}
	}
	if on1 == 0 || on1 == len(assign) {
		t.Error("degenerate hybrid assignment")
	}
}

func TestFacadeBinaryGraphIO(t *testing.T) {
	dir := t.TempDir()
	g, err := hetgraph.GenerateUniform(100, 900, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := hetgraph.SaveGraphBinary(dir+"/g.bin", g); err != nil {
		t.Fatal(err)
	}
	g2, err := hetgraph.LoadGraph(dir + "/g.bin") // auto-detects binary
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("binary round trip lost edges")
	}
}

func TestFacadeConnectedComponents(t *testing.T) {
	g, err := hetgraph.GenerateCommunity(hetgraph.DefaultCommunity(500))
	if err != nil {
		t.Fatal(err)
	}
	cc := hetgraph.NewConnectedComponents()
	res, err := hetgraph.Run(cc, g, hetgraph.Options{Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, Vectorized: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || cc.NumComponents() < 1 {
		t.Fatalf("CC failed: converged=%v comps=%d", res.Converged, cc.NumComponents())
	}
}

func TestFacadeAutotune(t *testing.T) {
	g, err := hetgraph.GeneratePowerLaw(hetgraph.DefaultPowerLaw(2000))
	if err != nil {
		t.Fatal(err)
	}
	newApp := func() hetgraph.AppF32 { return hetgraph.NewPageRank() }
	split, err := hetgraph.TuneWorkerMoverSplit(newApp, g, hetgraph.MIC(), hetgraph.TuneBudget{MaxProbes: 3, ProbeIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if split.Workers+split.Movers != 240 {
		t.Fatalf("split %d+%d", split.Workers, split.Movers)
	}
	ratio, err := hetgraph.TunePartitionRatio(newApp, g, hetgraph.PartitionRoundRobin,
		hetgraph.Options{Dev: hetgraph.CPU(), Scheme: hetgraph.SchemeLocking, Vectorized: true},
		hetgraph.Options{Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, Vectorized: true},
		hetgraph.TuneBudget{MaxProbes: 3, ProbeIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ratio.Ratio.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeVerifyAgainstSequential(t *testing.T) {
	g, err := hetgraph.GeneratePowerLaw(hetgraph.DefaultPowerLaw(1500))
	if err != nil {
		t.Fatal(err)
	}
	wg, err := hetgraph.AddRandomWeights(g, 0, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	app := hetgraph.NewSSSP(0)
	if _, err := hetgraph.Run(app, wg, hetgraph.Options{Dev: hetgraph.CPU()}); err != nil {
		t.Fatal(err)
	}
	ok, detail := hetgraph.VerifyAgainstSequential("sssp", app, wg, 0, 0)
	if !ok {
		t.Fatalf("verify failed: %s", detail)
	}
	// Corrupt the result: verification must catch it.
	app.Dist[7] = -1
	if ok, _ := hetgraph.VerifyAgainstSequential("sssp", app, wg, 0, 0); ok {
		t.Fatal("verification accepted corrupted distances")
	}
	// Unknown app type.
	if ok, _ := hetgraph.VerifyAgainstSequential("mystery", nil, wg, 0, 0); ok {
		t.Fatal("verification accepted unknown app")
	}
}

func TestFacadeTrace(t *testing.T) {
	g, err := hetgraph.GenerateUniform(500, 4000, 6)
	if err != nil {
		t.Fatal(err)
	}
	rec := hetgraph.NewTraceRecorder()
	app := hetgraph.NewPageRank()
	if _, err := hetgraph.Run(app, g, hetgraph.Options{Dev: hetgraph.MIC(), MaxIterations: 2, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no trace samples")
	}
	if hetgraph.FormatTraceSummary(rec.Summarize()) == "" {
		t.Fatal("empty summary")
	}
}

func TestFacadeVerifyAllApps(t *testing.T) {
	// Exercise every verification branch through the facade.
	g, err := hetgraph.GenerateUniform(400, 3000, 14)
	if err != nil {
		t.Fatal(err)
	}

	bfs := hetgraph.NewBFS(0)
	if _, err := hetgraph.Run(bfs, g, hetgraph.Options{Dev: hetgraph.CPU()}); err != nil {
		t.Fatal(err)
	}
	if ok, d := hetgraph.VerifyAgainstSequential("bfs", bfs, g, 0, 0); !ok {
		t.Fatalf("bfs verify: %s", d)
	}
	bfs.Levels[3] = 99
	if ok, _ := hetgraph.VerifyAgainstSequential("bfs", bfs, g, 0, 0); ok {
		t.Fatal("bfs verify accepted corruption")
	}

	pr := hetgraph.NewPageRank()
	if _, err := hetgraph.Run(pr, g, hetgraph.Options{Dev: hetgraph.CPU(), MaxIterations: 4}); err != nil {
		t.Fatal(err)
	}
	if ok, d := hetgraph.VerifyAgainstSequential("pagerank", pr, g, 0, 4); !ok {
		t.Fatalf("pagerank verify: %s", d)
	}
	if ok, _ := hetgraph.VerifyAgainstSequential("pagerank", pr, g, 0, 0); ok {
		t.Fatal("pagerank verify without iteration count accepted")
	}
	pr.Ranks[0] = 1e9
	if ok, _ := hetgraph.VerifyAgainstSequential("pagerank", pr, g, 0, 4); ok {
		t.Fatal("pagerank verify accepted corruption")
	}

	dag, err := hetgraph.GenerateDAG(hetgraph.DefaultDAG(200, 4000))
	if err != nil {
		t.Fatal(err)
	}
	topo := hetgraph.NewTopoSort()
	if _, err := hetgraph.Run(topo, dag, hetgraph.Options{Dev: hetgraph.CPU()}); err != nil {
		t.Fatal(err)
	}
	if ok, d := hetgraph.VerifyAgainstSequential("toposort", topo, dag, 0, 0); !ok {
		t.Fatalf("toposort verify: %s", d)
	}
	topo.Order[0], topo.Order[199] = topo.Order[199], topo.Order[0]
	if ok, _ := hetgraph.VerifyAgainstSequential("toposort", topo, dag, 0, 0); ok {
		t.Fatal("toposort verify accepted corruption")
	}

	cg, err := hetgraph.GenerateCommunity(hetgraph.DefaultCommunity(400))
	if err != nil {
		t.Fatal(err)
	}
	cc := hetgraph.NewConnectedComponents()
	if _, err := hetgraph.Run(cc, cg, hetgraph.Options{Dev: hetgraph.CPU()}); err != nil {
		t.Fatal(err)
	}
	if ok, d := hetgraph.VerifyAgainstSequential("cc", cc, cg, 0, 0); !ok {
		t.Fatalf("cc verify: %s", d)
	}
	cc.Labels[5] = 399
	if ok, _ := hetgraph.VerifyAgainstSequential("cc", cc, cg, 0, 0); ok {
		t.Fatal("cc verify accepted corruption")
	}
}

func TestFacadeRMATAndStats(t *testing.T) {
	g, err := hetgraph.GenerateRMAT(hetgraph.DefaultRMAT(10))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 {
		t.Fatalf("RMAT vertices = %d", g.NumVertices())
	}
	s := hetgraph.Stats(g)
	if s.GiniOut < 0.4 {
		t.Errorf("RMAT not skewed: gini %v", s.GiniOut)
	}
}

func TestFacadeLabelPropagation(t *testing.T) {
	g, err := hetgraph.GenerateCommunity(hetgraph.DefaultCommunity(600))
	if err != nil {
		t.Fatal(err)
	}
	app := hetgraph.NewLabelPropagation()
	res, err := hetgraph.RunLabelPropagation(app, g, hetgraph.Options{
		Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, MaxIterations: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations")
	}
	if app.NumCommunities() >= g.NumVertices() {
		t.Fatal("LPA found no structure")
	}
	sizes := app.CommunitySizes()
	if len(sizes) != app.NumCommunities() || sizes[0] < sizes[len(sizes)-1] {
		t.Fatal("community sizes inconsistent")
	}
	assign, err := hetgraph.Partition(hetgraph.PartitionRoundRobin, g, hetgraph.Ratio{A: 1, B: 1})
	if err != nil {
		t.Fatal(err)
	}
	app2 := hetgraph.NewLabelPropagation()
	if _, err := hetgraph.RunLabelPropagationHetero(app2, g, assign,
		hetgraph.Options{Dev: hetgraph.CPU(), Scheme: hetgraph.SchemeLocking, MaxIterations: 8},
		hetgraph.Options{Dev: hetgraph.MIC(), Scheme: hetgraph.SchemePipelined, MaxIterations: 8},
	); err != nil {
		t.Fatal(err)
	}
	for v := range app.Labels {
		if app2.Labels[v] != app.Labels[v] {
			t.Fatalf("hetero LPA diverges at %d", v)
		}
	}
}
