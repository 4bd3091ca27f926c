package csb

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"hetgraph/internal/graph"
)

// ScatterPlan is the static layout of a fixed source list's messages: the
// buffer cell every out-edge writes each iteration. Cells[Start[i]+j] is the
// index into Buffer.Cells of the cell that sources[i]'s j-th out-edge (in
// CSR order) fills, or -1 when the edge's destination is not owned by the
// buffer's device (a remote message).
type ScatterPlan struct {
	Start []int
	Cells []int32
}

// Plan lays the buffer out statically for sources, whose every out-edge
// carries exactly one message every iteration. It wipes the buffer, gives
// every owned vertex with in-edges a column — condensed in vertex-position
// order under Dynamic, the fixed column under OneToOne — and assigns each
// destination's rows in ascending source-ID order, then CSR edge order. The
// columns, the index and owner tables and the per-column fills become
// static: generation stores each message at its planned cell with no
// atomics, every lane holds its messages in canonical order, and the
// counters (ColumnFills, PackedRows, ColumnsUsed, Messages, Reset's bytes)
// equal what Insert of the same messages would have produced.
//
// The planned fills count as this iteration's messages from the moment
// Plan returns, so call it between an iteration's Reset and its
// generation. Messages received from other devices still go through
// Insert, which appends them after a column's planned rows.
func (b *Buffer) Plan(g *graph.CSR, sources []graph.VertexID, owned func(graph.VertexID) bool) (*ScatterPlan, error) {
	if g.NumVertices() != b.n {
		return nil, fmt.Errorf("csb: plan over %d vertices for a buffer of %d", g.NumVertices(), b.n)
	}
	if len(b.cells) > math.MaxInt32 {
		return nil, fmt.Errorf("csb: %d cells exceed the plan's int32 cell index", len(b.cells))
	}
	b.initialize()
	if b.cfg.Mode == Dynamic {
		// OneToOne columns are fixed already; Dynamic ones are condensed
		// over the vertices that can receive.
		in := g.InDegrees()
		for gi := range b.groups {
			gr := &b.groups[gi]
			for posIn := range gr.index {
				pos := gi*b.groupWidth + posIn
				if pos < b.n && in[b.sorted[pos]] > 0 && owned(b.sorted[pos]) {
					gr.index[posIn], gr.owner[gr.colOffset] = gr.colOffset, int32(posIn)
					gr.colOffset++
				}
			}
		}
	}

	p := &ScatterPlan{Start: make([]int, len(sources)+1)}
	for i, u := range sources {
		p.Start[i+1] = p.Start[i] + g.OutDegree(u)
	}
	p.Cells = make([]int32, p.Start[len(sources)])
	order := make([]int, len(sources))
	for i := range order {
		order[i] = i
	}
	if !slices.IsSorted(sources) {
		slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(sources[x], sources[y]) })
	}
	w := int(b.cfg.Width)
	for _, i := range order {
		cell := p.Cells[p.Start[i]:p.Start[i+1]]
		for j, dst := range g.Neighbors(sources[i]) {
			if !owned(dst) {
				cell[j] = -1
				continue
			}
			gi, posIn := b.locate(dst)
			gr := &b.groups[gi]
			col := int(gr.index[posIn])
			row := int(gr.fill[col])
			if row >= gr.maxDeg {
				return nil, fmt.Errorf("csb: vertex %d receives %d planned messages, exceeding group max in-degree %d", dst, row+1, gr.maxDeg)
			}
			gr.fill[col]++
			cell[j] = int32(gr.base + (col/w)*gr.maxDeg*w + row*w + col%w)
		}
	}
	for gi := range b.groups {
		gr := &b.groups[gi]
		gr.static = slices.Clone(gr.fill)
	}
	b.planned = true
	return p, nil
}

// resetPlanned is Reset for a planned buffer: it clears the received rows
// above each column's planned ones and restores the planned fills.
func (b *Buffer) resetPlanned() int64 {
	var bytes int64
	w := int(b.cfg.Width)
	for gi := range b.groups {
		gr := &b.groups[gi]
		for c, f := range gr.fill {
			bytes += int64(f) * 4
			if lo := gr.static[c]; f > lo {
				arr := gr.arrays[c/w]
				for r := int(lo); r < int(f); r++ {
					arr.Set(r, c%w, b.cfg.Identity)
				}
				gr.fill[c] = lo
			}
		}
	}
	return bytes
}
