package csb

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hetgraph/internal/graph"
)

// skewedGraph builds a random multigraph whose destinations concentrate on
// low IDs, so in-degrees span groups of very different heights.
func skewedGraph(t *testing.T, rng *rand.Rand, n, m int) *graph.CSR {
	t.Helper()
	b := graph.NewBuilder(n, false)
	for i := 0; i < m; i++ {
		src := graph.VertexID(rng.Intn(n))
		dst := graph.VertexID(rng.Intn(rng.Intn(n) + 1))
		b.AddEdge(src, dst, 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// planCase is one buffer's view of a 3-rank group (or a whole graph when
// ranks is 1): it owns the vertices v with v%ranks == 0 and generates from
// them; the other ranks are its peers.
type planCase struct {
	g       *graph.CSR
	ranks   int
	sources []graph.VertexID
}

func (pc planCase) owner(v graph.VertexID) int { return int(v) % pc.ranks }

func (pc planCase) owned(v graph.VertexID) bool { return pc.owner(v) == 0 }

// received returns the messages the peers send this buffer after combining:
// peer by peer in rank order, each in ascending destination order, one
// message per destination the peer has an edge to. The value is -peer.
func (pc planCase) received() []struct {
	dst graph.VertexID
	val float32
} {
	var out []struct {
		dst graph.VertexID
		val float32
	}
	for peer := 1; peer < pc.ranks; peer++ {
		var dsts []graph.VertexID
		for u := 0; u < pc.g.NumVertices(); u++ {
			if pc.owner(graph.VertexID(u)) != peer {
				continue
			}
			for _, d := range pc.g.Neighbors(graph.VertexID(u)) {
				if pc.owned(d) {
					dsts = append(dsts, d)
				}
			}
		}
		slices.Sort(dsts)
		for _, d := range slices.Compact(dsts) {
			out = append(out, struct {
				dst graph.VertexID
				val float32
			}{d, -float32(peer)})
		}
	}
	return out
}

// planCases covers a whole-graph buffer and a group rank's buffer, with
// the sources in ascending and in shuffled order.
func planCases(t *testing.T) map[string]planCase {
	rng := rand.New(rand.NewSource(13))
	g := skewedGraph(t, rng, 300, 2400)
	all := make([]graph.VertexID, g.NumVertices())
	var third []graph.VertexID
	for v := range all {
		all[v] = graph.VertexID(v)
		if v%3 == 0 {
			third = append(third, graph.VertexID(v))
		}
	}
	shuffled := slices.Clone(third)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return map[string]planCase{
		"single":         {g, 1, all},
		"rank0of3":       {g, 3, third},
		"rank0of3-shuff": {g, 3, shuffled},
	}
}

// scatter writes one iteration's messages through the plan, each carrying
// its source ID as value.
func scatter(b *Buffer, pc planCase, p *ScatterPlan) {
	cells := b.Cells()
	for i, u := range pc.sources {
		for j := p.Start[i]; j < p.Start[i+1]; j++ {
			if c := p.Cells[j]; c >= 0 {
				cells[c] = float32(u)
			}
		}
	}
}

// insertAll inserts the same iteration's local messages through Insert,
// in a shuffled order.
func insertAll(b *Buffer, pc planCase, rng *rand.Rand) {
	order := slices.Clone(pc.sources)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, u := range order {
		for _, d := range pc.g.Neighbors(u) {
			if pc.owned(d) {
				b.Insert(d, float32(u))
			}
		}
	}
}

type counters struct {
	Fills    []int32
	Packed   int64
	Used     int64
	Messages int64
}

func countersOf(b *Buffer) counters {
	return counters{b.ColumnFills(nil), b.PackedRows(), b.ColumnsUsed(), b.Messages()}
}

func TestPlanCellsDistinctAndComplete(t *testing.T) {
	for _, mode := range []InsertMode{Dynamic, OneToOne} {
		for name, pc := range planCases(t) {
			t.Run(mode.String()+"/"+name, func(t *testing.T) {
				b, err := Build(pc.g, Config{Width: 4, K: 2, Identity: 0, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				p, err := b.Plan(pc.g, pc.sources, pc.owned)
				if err != nil {
					t.Fatal(err)
				}
				if !b.planned {
					t.Fatal("buffer not marked planned after Plan")
				}
				seen := map[int32]bool{}
				for i, u := range pc.sources {
					nb := pc.g.Neighbors(u)
					if got := p.Start[i+1] - p.Start[i]; got != len(nb) {
						t.Fatalf("source %d has %d plan slots, want its out-degree %d", u, got, len(nb))
					}
					for j, d := range nb {
						c := p.Cells[p.Start[i]+j]
						if !pc.owned(d) {
							if c != -1 {
								t.Fatalf("remote edge %d->%d planned to cell %d, want -1", u, d, c)
							}
							continue
						}
						if c < 0 || int(c) >= len(b.Cells()) {
							t.Fatalf("edge %d->%d planned to cell %d, outside [0,%d)", u, d, c, len(b.Cells()))
						}
						if seen[c] {
							t.Fatalf("edge %d->%d shares cell %d with another edge", u, d, c)
						}
						seen[c] = true
					}
				}
			})
		}
	}
}

func TestPlanLanesInSourceThenPeerOrder(t *testing.T) {
	for _, mode := range []InsertMode{Dynamic, OneToOne} {
		for name, pc := range planCases(t) {
			t.Run(mode.String()+"/"+name, func(t *testing.T) {
				b, err := Build(pc.g, Config{Width: 4, K: 2, Identity: 0, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				p, err := b.Plan(pc.g, pc.sources, pc.owned)
				if err != nil {
					t.Fatal(err)
				}
				localIn := make([]int, pc.g.NumVertices())
				for _, u := range pc.sources {
					for _, d := range pc.g.Neighbors(u) {
						if pc.owned(d) {
							localIn[d]++
						}
					}
				}
				for iter := 0; iter < 2; iter++ {
					b.Reset()
					scatter(b, pc, p)
					for _, m := range pc.received() {
						b.Insert(m.dst, m.val)
					}
					var lanes []Lane
					for task := 0; task < b.NumTasks(); task++ {
						arr, _ := b.Task(task)
						lanes = b.Lanes(task, lanes[:0])
						for _, l := range lanes {
							col := make([]float32, l.Count)
							for r := range col {
								col[r] = arr.At(r, l.Lane)
							}
							local, recv := col[:localIn[l.Vertex]], col[localIn[l.Vertex]:]
							if !slices.IsSorted(local) {
								t.Fatalf("iteration %d: vertex %d's planned rows %v are not in ascending source order", iter, l.Vertex, local)
							}
							for _, v := range local {
								if v < 0 {
									t.Fatalf("iteration %d: vertex %d's planned rows %v hold a received message", iter, l.Vertex, local)
								}
							}
							// Received values are -peer: peer order is descending.
							if !slices.IsSortedFunc(recv, func(x, y float32) int { return int(y - x) }) || slices.ContainsFunc(recv, func(v float32) bool { return v >= 0 }) {
								t.Fatalf("iteration %d: vertex %d's received rows %v are not in peer order", iter, l.Vertex, recv)
							}
						}
					}
				}
			})
		}
	}
}

// TestPlanCountersMatchInsert: a planned buffer reports exactly what an
// unplanned buffer reports after the same messages went through Insert —
// the counters the cost model prices must not see the layout.
func TestPlanCountersMatchInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, mode := range []InsertMode{Dynamic, OneToOne} {
		for name, pc := range planCases(t) {
			t.Run(mode.String()+"/"+name, func(t *testing.T) {
				cfg := Config{Width: 4, K: 2, Identity: 0, Mode: mode}
				planned, err := Build(pc.g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				dyn, err := Build(pc.g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var p *ScatterPlan
				for iter := 0; iter < 3; iter++ {
					if pb, db := planned.Reset(), dyn.Reset(); pb != db {
						t.Fatalf("iteration %d: Reset bytes planned %d, dynamic %d", iter, pb, db)
					}
					if p == nil {
						// The engine plans in its first generate, after that
						// superstep's Reset.
						if p, err = planned.Plan(pc.g, pc.sources, pc.owned); err != nil {
							t.Fatal(err)
						}
					}
					scatter(planned, pc, p)
					insertAll(dyn, pc, rng)
					if pcs, dcs := countersOf(planned), countersOf(dyn); !reflect.DeepEqual(pcs, dcs) {
						t.Fatalf("iteration %d after generation: planned %+v, dynamic %+v", iter, pcs, dcs)
					}
					for _, m := range pc.received() {
						planned.Insert(m.dst, m.val)
						dyn.Insert(m.dst, m.val)
					}
					if pcs, dcs := countersOf(planned), countersOf(dyn); !reflect.DeepEqual(pcs, dcs) {
						t.Fatalf("iteration %d after receive: planned %+v, dynamic %+v", iter, pcs, dcs)
					}
				}
				if pb, db := planned.Reset(), dyn.Reset(); pb != db {
					t.Fatalf("final Reset bytes planned %d, dynamic %d", pb, db)
				}
			})
		}
	}
}

// TestPlanResetClearsReceivedRows: Reset leaves the planned rows to be
// overwritten and restores every received row to the identity.
func TestPlanResetClearsReceivedRows(t *testing.T) {
	pc := planCases(t)["rank0of3"]
	b, err := Build(pc.g, Config{Width: 4, K: 2, Identity: inf, Mode: Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Plan(pc.g, pc.sources, pc.owned)
	if err != nil {
		t.Fatal(err)
	}
	scatter(b, pc, p)
	planned := b.Messages()
	recv := pc.received()
	for _, m := range recv {
		b.Insert(m.dst, m.val)
	}
	if got := b.Messages(); got != planned+int64(len(recv)) {
		t.Fatalf("Messages = %d, want %d planned + %d received", got, planned, len(recv))
	}
	b.Reset()
	if got := b.Messages(); got != planned {
		t.Fatalf("Messages after Reset = %d, want the planned %d", got, planned)
	}
	for _, v := range b.Cells() {
		if v < 0 {
			t.Fatal("Reset left a received message in the buffer")
		}
	}
}

// TestPlanRejectsUnplannedDestination: a planned buffer allocates no
// columns, so a message for a vertex outside the plan's ownership panics
// instead of silently growing the static layout.
func TestPlanRejectsUnplannedDestination(t *testing.T) {
	pc := planCases(t)["rank0of3"]
	b, err := Build(pc.g, Config{Width: 4, K: 2, Identity: 0, Mode: Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Plan(pc.g, pc.sources, pc.owned); err != nil {
		t.Fatal(err)
	}
	in := pc.g.InDegrees()
	var foreign graph.VertexID = 1
	for in[foreign] == 0 {
		foreign += 3
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Insert for unowned vertex %d did not panic", foreign)
		}
	}()
	b.Insert(foreign, 1)
}
