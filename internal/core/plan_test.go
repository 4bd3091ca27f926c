package core_test

import (
	"fmt"
	"strings"
	"testing"

	"hetgraph/internal/apps"
	"hetgraph/internal/core"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
)

// contractBreaker is PageRank whose Generate breaks the FixedActiveSet
// contract at one vertex: it drops that vertex's first out-edge, or swaps
// its first two.
type contractBreaker struct {
	*apps.PageRank
	v    graph.VertexID
	swap bool
}

func (b *contractBreaker) Generate(v graph.VertexID, emit func(graph.VertexID, float32)) {
	if v != b.v {
		b.PageRank.Generate(v, emit)
		return
	}
	type msg struct {
		dst graph.VertexID
		val float32
	}
	var out []msg
	b.PageRank.Generate(v, func(d graph.VertexID, x float32) { out = append(out, msg{d, x}) })
	if b.swap {
		out[0], out[1] = out[1], out[0]
	} else {
		out = out[1:]
	}
	for _, m := range out {
		emit(m.dst, m.val)
	}
}

// breakableVertex returns a vertex owned by rank 0 of assign (every vertex
// when assign is nil) whose first two out-edges lead to different vertices.
func breakableVertex(t *testing.T, g *graph.CSR, assign []int32) graph.VertexID {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		nb := g.Neighbors(graph.VertexID(v))
		if (assign == nil || assign[v] == 0) && len(nb) >= 2 && nb[0] != nb[1] {
			return graph.VertexID(v)
		}
	}
	t.Fatal("no vertex with two distinct out-edges")
	return 0
}

// TestPlanContractViolationNamesVertex: a fixed-active app whose Generate
// skips or reorders out-edges would leave stale or misplaced cells on a
// planned rank; the run must fail instead, naming the vertex, on a single
// device and on the planned rank of a group.
func TestPlanContractViolationNamesVertex(t *testing.T) {
	g := chaosGraph(t)
	assign := nrankAssign(t, g, 2)
	for _, swap := range []bool{false, true} {
		name := map[bool]string{false: "skip", true: "swap"}[swap]
		check := func(t *testing.T, v graph.VertexID, err error) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s of vertex %d's out-edges went unnoticed", name, v)
			}
			if want := fmt.Sprintf("vertex %d ", v); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "FixedActiveSet") {
				t.Fatalf("error %q does not name %q and the FixedActiveSet contract", err, want)
			}
		}
		t.Run(name+"/single", func(t *testing.T) {
			v := breakableVertex(t, g, nil)
			app := &contractBreaker{PageRank: apps.NewPageRank(), v: v, swap: swap}
			_, err := core.RunF32(app, g, core.Options{Dev: machine.CPU(), Scheme: core.SchemeLocking, Vectorized: true, MaxIterations: 3})
			check(t, v, err)
		})
		t.Run(name+"/group", func(t *testing.T) {
			v := breakableVertex(t, g, assign)
			app := &contractBreaker{PageRank: apps.NewPageRank(), v: v, swap: swap}
			_, err := core.RunF32Hetero(app, g, assign, nrankOpts(t, 2, 3, 0, "")...)
			check(t, v, err)
		})
	}
}
