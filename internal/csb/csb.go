// Package csb implements the Condensed Static Buffer (§IV-B of the paper),
// the core data structure of the runtime: a message buffer organized so that
// messages destined to w/msg_size different vertices land in the lanes of
// one aligned SIMD row, enabling vectorized message reduction while keeping
// memory bounded.
//
// Construction (once per graph):
//  1. sort vertices by in-degree, descending (stable by ID), and build a
//     redirection map from vertex IDs to sorted positions;
//  2. group consecutive sorted vertices into vertex groups of k*width
//     vertices (k a small constant, width the SIMD lane count);
//  3. allocate k vector arrays per group, each with max-in-degree-of-group
//     rows.
//
// Per iteration, messages are inserted into columns (a column is one lane of
// one of the group's arrays) either by a fixed one-to-one position→column
// mapping, or by dynamic column allocation, which condenses occupied columns
// to the front so fewer rows of fewer arrays need reduction (§IV-C).
package csb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hetgraph/internal/graph"
	"hetgraph/internal/vec"
)

// InsertMode selects the vertex→column mapping policy.
type InsertMode int

const (
	// Dynamic allocates columns on first message per vertex per iteration,
	// condensing used columns to the front of each group (Fig. 3b).
	Dynamic InsertMode = iota
	// OneToOne maps each vertex to a fixed column (Fig. 3a); simpler, but
	// wastes SIMD lanes on vertices that receive nothing. Kept for the
	// ablation benchmarks.
	OneToOne
)

func (m InsertMode) String() string {
	switch m {
	case Dynamic:
		return "dynamic"
	case OneToOne:
		return "one-to-one"
	default:
		return fmt.Sprintf("InsertMode(%d)", int(m))
	}
}

// Config parameterizes buffer construction.
type Config struct {
	// Width is the SIMD lane count (w/msg_size).
	Width vec.Width
	// K is the vertex-group width factor: each group spans K*Width
	// vertices and owns K vector arrays. The paper uses a small constant
	// (2 in its running example).
	K int
	// Identity is the reduction identity stored in empty cells, so that
	// lane bubbles cannot corrupt a SIMD reduction (+Inf for min, 0 for
	// sum, -Inf for max).
	Identity float32
	// Mode is the column-mapping policy.
	Mode InsertMode
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Width.Validate(); err != nil {
		return err
	}
	if c.K < 1 || c.K > 64 {
		return fmt.Errorf("csb: K = %d out of [1,64]", c.K)
	}
	if c.Mode != Dynamic && c.Mode != OneToOne {
		return fmt.Errorf("csb: unknown insert mode %d", int(c.Mode))
	}
	return nil
}

// group is one vertex group: k vector arrays of maxDeg rows, plus the
// dynamic-column-allocation state.
type group struct {
	maxDeg int
	arrays []*vec.ArrayF32
	// index[posInGroup] is the column allocated to that vertex this
	// iteration, or -1 ("index array", Fig. 3b). Accessed atomically.
	index []int32
	// owner[col] is the posInGroup that holds the column, or -1.
	owner []int32
	// fill[col] counts messages inserted into the column this iteration.
	// The fetch-add on this counter is the per-insert critical section the
	// locking scheme pays for; the pipelined scheme makes it uncontended
	// by routing each destination to exactly one mover.
	fill []int32
	// colOffset is the next unallocated column ("column offset"),
	// guarded by allocMu during generation.
	colOffset int32
	// allocMu serializes column allocation — the one place the paper's
	// dynamic scheme locks ("allocates the next available column from that
	// vertex group, using locking in the process"). The per-message hot
	// path stays lock-free.
	allocMu sync.Mutex
}

// Buffer is a Condensed Static Buffer for float32 messages.
type Buffer struct {
	cfg        Config
	n          int
	groupWidth int
	// redirect[v] is v's position in the in-degree-sorted order
	// ("redirection map").
	redirect []int32
	// sorted[pos] is the vertex at that position.
	sorted []graph.VertexID
	groups []group
}

// Build constructs the buffer for graph g under cfg. The in-degree sort is
// descending and stable by vertex ID, matching Figure 3.
func Build(g *graph.CSR, cfg Config) (*Buffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := g.InDegrees()
	return BuildFromDegrees(in, cfg)
}

// BuildFromDegrees constructs the buffer given per-vertex in-degrees
// directly. The heterogeneous engine uses this form: a device's buffer is
// sized by in-degrees restricted to its local partition plus potential
// remote contributions.
func BuildFromDegrees(in []int32, cfg Config) (*Buffer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(in)
	b := &Buffer{
		cfg:        cfg,
		n:          n,
		groupWidth: cfg.K * int(cfg.Width),
		redirect:   make([]int32, n),
		sorted:     make([]graph.VertexID, n),
	}
	for v := range b.sorted {
		b.sorted[v] = graph.VertexID(v)
	}
	sort.SliceStable(b.sorted, func(i, j int) bool {
		return in[b.sorted[i]] > in[b.sorted[j]]
	})
	for pos, v := range b.sorted {
		b.redirect[v] = int32(pos)
	}
	numGroups := (n + b.groupWidth - 1) / b.groupWidth
	b.groups = make([]group, numGroups)
	for gi := range b.groups {
		lo := gi * b.groupWidth
		hi := lo + b.groupWidth
		if hi > n {
			hi = n
		}
		maxDeg := 0
		for pos := lo; pos < hi; pos++ {
			if d := int(in[b.sorted[pos]]); d > maxDeg {
				maxDeg = d
			}
		}
		gr := &b.groups[gi]
		gr.maxDeg = maxDeg
		gr.arrays = make([]*vec.ArrayF32, cfg.K)
		for a := range gr.arrays {
			arr, err := vec.NewArrayF32(cfg.Width, maxDeg)
			if err != nil {
				return nil, err
			}
			gr.arrays[a] = arr
		}
		gr.index = make([]int32, b.groupWidth)
		gr.owner = make([]int32, b.groupWidth)
		gr.fill = make([]int32, b.groupWidth)
	}
	b.initialize()
	return b, nil
}

// NumVertices returns the number of destinations the buffer covers.
func (b *Buffer) NumVertices() int { return b.n }

// NumGroups returns the vertex-group count.
func (b *Buffer) NumGroups() int { return len(b.groups) }

// GroupWidth returns the vertices per group (k*width).
func (b *Buffer) GroupWidth() int { return b.groupWidth }

// Width returns the SIMD lane width.
func (b *Buffer) Width() int { return int(b.cfg.Width) }

// K returns the group width factor.
func (b *Buffer) K() int { return b.cfg.K }

// Mode returns the insertion mode.
func (b *Buffer) Mode() InsertMode { return b.cfg.Mode }

// GroupMaxDegree returns the row count of group gi's arrays.
func (b *Buffer) GroupMaxDegree(gi int) int { return b.groups[gi].maxDeg }

// Redirect returns the sorted position of vertex v.
func (b *Buffer) Redirect(v graph.VertexID) int32 { return b.redirect[v] }

// SortedVertex returns the vertex at sorted position pos.
func (b *Buffer) SortedVertex(pos int) graph.VertexID { return b.sorted[pos] }

// FootprintBytes returns the allocated message-cell memory. The condensed
// design's point is that this is far below n*maxInDegree*4, the naive
// rectangular buffer ("significantly reduces the memory requirement").
func (b *Buffer) FootprintBytes() int64 {
	var cells int64
	for gi := range b.groups {
		cells += int64(b.groups[gi].maxDeg) * int64(b.groupWidth)
	}
	return cells * 4
}

// NaiveFootprintBytes returns the rectangular n x maxInDegree buffer size
// the condensed layout is compared against.
func (b *Buffer) NaiveFootprintBytes() int64 {
	maxDeg := 0
	for gi := range b.groups {
		if b.groups[gi].maxDeg > maxDeg {
			maxDeg = b.groups[gi].maxDeg
		}
	}
	return int64(b.n) * int64(maxDeg) * 4
}

// initialize fills every cell with the identity and establishes the
// column-mapping state; called once at Build.
func (b *Buffer) initialize() {
	for gi := range b.groups {
		gr := &b.groups[gi]
		for _, arr := range gr.arrays {
			arr.Fill(b.cfg.Identity)
		}
		for i := range gr.index {
			gr.index[i] = -1
			gr.owner[i] = -1
			gr.fill[i] = 0
		}
		gr.colOffset = 0
		if b.cfg.Mode == OneToOne {
			// Fixed mapping: column i belongs to position i; establish it
			// once so Insert and reduction share one code path.
			for i := range gr.index {
				gr.index[i] = int32(i)
				gr.owner[i] = int32(i)
			}
			gr.colOffset = int32(b.groupWidth)
		}
	}
}

// Reset prepares the buffer for a new iteration by clearing only the cells
// that the previous iteration wrote (the CSB is static; a full wipe per
// iteration would cost the whole footprint in bandwidth for nothing when
// few vertices are active, e.g. BFS tails). It returns the number of bytes
// rewritten, which the cost model charges as buffer maintenance traffic.
//
// This partial reset relies on the reduction contract: ReduceVec must be a
// per-lane fold, so lanes that held only identity cells still hold the
// identity afterwards.
func (b *Buffer) Reset() int64 {
	var bytes int64
	w := int(b.cfg.Width)
	for gi := range b.groups {
		gr := &b.groups[gi]
		limit := int(gr.colOffset)
		if limit > len(gr.fill) {
			limit = len(gr.fill)
		}
		for c := 0; c < limit; c++ {
			f := int(gr.fill[c])
			if f > 0 {
				arr := gr.arrays[c/w]
				lane := c % w
				for r := 0; r < f; r++ {
					arr.Set(r, lane, b.cfg.Identity)
				}
				bytes += int64(f) * 4
			}
			gr.fill[c] = 0
			if b.cfg.Mode == Dynamic {
				if own := gr.owner[c]; own >= 0 {
					gr.index[own] = -1
					gr.owner[c] = -1
				}
			}
		}
		if b.cfg.Mode == Dynamic {
			gr.colOffset = 0
		}
	}
	return bytes
}

// locate splits a destination vertex into (group, position-in-group).
func (b *Buffer) locate(dst graph.VertexID) (gi int, posIn int) {
	pos := int(b.redirect[dst])
	return pos / b.groupWidth, pos % b.groupWidth
}

// Insert places one message for dst into the buffer. It is safe for
// concurrent use: column allocation uses a CAS on the index array plus an
// atomic column-offset increment (the "locking" the paper describes), and
// row claims use an atomic fetch-add on the column fill count.
//
// It panics if dst receives more messages in one iteration than its
// in-degree allows, which would indicate a broken application contract.
func (b *Buffer) Insert(dst graph.VertexID, val float32) {
	gi, posIn := b.locate(dst)
	gr := &b.groups[gi]
	col := atomic.LoadInt32(&gr.index[posIn])
	if col < 0 {
		// Allocate the next available column, exactly once per vertex per
		// iteration, under the group's allocation lock (§IV-B). Distinct
		// vertices per group never exceed the group width, so the offset
		// stays in range.
		col = b.allocColumn(gr, posIn)
	}
	row := atomic.AddInt32(&gr.fill[col], 1) - 1
	if int(row) >= gr.maxDeg {
		panic(fmt.Sprintf("csb: vertex %d received %d messages, exceeding group max in-degree %d", dst, row+1, gr.maxDeg))
	}
	arr := gr.arrays[int(col)/int(b.cfg.Width)]
	arr.Set(int(row), int(col)%int(b.cfg.Width), val)
}

// InsertOwned places one message for dst without per-message atomics. The
// caller must guarantee single-threaded ownership of dst for the iteration —
// the pipelined scheme does: each destination class (dst mod movers) is
// drained by exactly one mover, so dst's index entry and its column's fill
// count are touched by one goroutine only. Column allocation still takes the
// group's allocMu, because colOffset is shared by every vertex of the group
// and movers owning different classes can allocate in the same group
// concurrently. Visibility to post-run readers (ColumnFills, reduction) is
// established by the pipeline's WaitGroup.
func (b *Buffer) InsertOwned(dst graph.VertexID, val float32) {
	gi, posIn := b.locate(dst)
	gr := &b.groups[gi]
	col := gr.index[posIn]
	if col < 0 {
		col = b.allocColumn(gr, posIn)
	}
	row := gr.fill[col]
	gr.fill[col] = row + 1
	if int(row) >= gr.maxDeg {
		panic(fmt.Sprintf("csb: vertex %d received %d messages, exceeding group max in-degree %d", dst, row+1, gr.maxDeg))
	}
	arr := gr.arrays[int(col)/int(b.cfg.Width)]
	arr.Set(int(row), int(col)%int(b.cfg.Width), val)
}

// InsertOwnedBatch places one message per (dsts[i], vals[i]) pair under the
// same ownership contract as InsertOwned. This is the batch-insert path the
// movers use when draining whole SPSC batches: one call per drained batch
// instead of one per message.
func (b *Buffer) InsertOwnedBatch(dsts []graph.VertexID, vals []float32) {
	for i, dst := range dsts {
		b.InsertOwned(dst, vals[i])
	}
}

// allocColumn allocates the next available column of gr for posIn under the
// group's allocation lock and returns it.
func (b *Buffer) allocColumn(gr *group, posIn int) int32 {
	gr.allocMu.Lock()
	col := atomic.LoadInt32(&gr.index[posIn])
	if col < 0 {
		col = gr.colOffset
		gr.colOffset++
		atomic.StoreInt32(&gr.owner[col], int32(posIn))
		atomic.StoreInt32(&gr.index[posIn], col)
	}
	gr.allocMu.Unlock()
	return col
}

// ColumnFills appends the per-column message counts of this iteration to
// dst and returns it; the cost model's contention estimator consumes these.
// Counts are reported in vertex-position order, not column order: dynamic
// allocation hands columns out in whatever order the inserting threads
// reach them, and the estimator's floating-point sum must not depend on it.
func (b *Buffer) ColumnFills(dst []int32) []int32 {
	for gi := range b.groups {
		gr := &b.groups[gi]
		if atomic.LoadInt32(&gr.colOffset) == 0 {
			continue // nothing allocated in this group
		}
		for posIn := range gr.index {
			if f := b.positionFill(gr, posIn); f > 0 {
				dst = append(dst, f)
			}
		}
	}
	return dst
}

// PackedRows returns the SIMD rows a vectorized reduction of this
// iteration's messages costs, counting each group's occupied columns as if
// they had been allocated in vertex-position order: a row per lane-width
// chunk of columns, as tall as the chunk's fullest column. The real layout
// follows the racy column-allocation order, so its row count varies from
// run to run; the canonical packing keeps the priced work deterministic.
// OneToOne mode's mapping is already fixed, so its real layout is counted.
func (b *Buffer) PackedRows() int64 {
	w := int(b.cfg.Width)
	var rows int64
	for gi := range b.groups {
		gr := &b.groups[gi]
		if atomic.LoadInt32(&gr.colOffset) == 0 {
			continue // nothing allocated in this group
		}
		chunk, tallest, occupied := 0, int32(0), 0
		for posIn := range gr.index {
			f := b.positionFill(gr, posIn)
			if f == 0 {
				continue
			}
			slot := occupied
			if b.cfg.Mode == OneToOne {
				slot = posIn
			}
			occupied++
			if slot/w != chunk {
				rows += int64(tallest)
				chunk, tallest = slot/w, 0
			}
			tallest = max(tallest, f)
		}
		rows += int64(tallest)
	}
	return rows
}

// positionFill returns the message count of the column held by group
// position posIn this iteration (0 when it holds none).
func (b *Buffer) positionFill(gr *group, posIn int) int32 {
	col := atomic.LoadInt32(&gr.index[posIn])
	if col < 0 {
		return 0
	}
	return atomic.LoadInt32(&gr.fill[col])
}

// ColumnsUsed returns the number of columns allocated this iteration.
func (b *Buffer) ColumnsUsed() int64 {
	var used int64
	for gi := range b.groups {
		gr := &b.groups[gi]
		limit := int(atomic.LoadInt32(&gr.colOffset))
		if limit > len(gr.fill) {
			limit = len(gr.fill)
		}
		for c := 0; c < limit; c++ {
			if atomic.LoadInt32(&gr.fill[c]) > 0 {
				used++
			}
		}
	}
	return used
}

// Messages returns the number of messages inserted this iteration.
func (b *Buffer) Messages() int64 {
	var total int64
	for gi := range b.groups {
		gr := &b.groups[gi]
		for c := range gr.fill {
			total += int64(atomic.LoadInt32(&gr.fill[c]))
		}
	}
	return total
}
