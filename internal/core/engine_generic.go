package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hetgraph/internal/comm"
	"hetgraph/internal/csb"
	"hetgraph/internal/fault"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/pipeline"
	"hetgraph/internal/sched"
)

// deviceGeneric is one device's engine for structured-message applications
// (Semi-Clustering). Messages live in a per-vertex list buffer; there is no
// SIMD reduction path (§III), so processing always walks the lists.
type deviceGeneric[T any] struct {
	engine[T]
	app    AppGeneric[T]
	g      *graph.CSR
	buf    *csb.GenericBuffer[T]
	remote *comm.Combiner[T]
}

func newDeviceGeneric[T any](app AppGeneric[T], g *graph.CSR, opt Options, rank int, assign []int32, ep *comm.Endpoint[T]) (*deviceGeneric[T], error) {
	d := &deviceGeneric[T]{app: app, g: g}
	if err := d.init(app, opt, rank, assign, ep); err != nil {
		return nil, err
	}
	// The generic engine is push-only: structured messages carry data the
	// pull sweep cannot recompute from parent state alone. Explicit pull is
	// rejected; auto falls back to push.
	if d.opt.Direction == DirectionPull {
		return nil, &InvalidOptionsError{Field: "Direction", Reason: "pull traversal requires a float32 application implementing core.PullerF32; the generic engine is push-only"}
	}
	d.buf = csb.NewGenericBuffer[T](g.NumVertices(), 4*d.opt.Threads)
	if assign != nil {
		d.remote = comm.NewCombiner(g.NumVertices(), app.Combine)
	}
	return d, nil
}

// routeLocked is the locking-scheme emit target.
func (d *deviceGeneric[T]) routeLocked(dst graph.VertexID, val T) {
	if d.local(dst) {
		d.buf.Insert(dst, val)
		return
	}
	d.remoteMu.Lock()
	d.remote.Add(dst, val)
	d.remoteMu.Unlock()
	d.remCount.Add(1)
}

// routeOwnedBatch is the pipelined-scheme sink: the calling mover is the
// unique mover for every destination in the batch, so local runs use the
// lock-free batch insert. The remote combiner is still shared across movers
// and keeps its mutex.
func (d *deviceGeneric[T]) routeOwnedBatch(dsts []graph.VertexID, vals []T) {
	for i := 0; i < len(dsts); {
		if d.local(dsts[i]) {
			j := i + 1
			for j < len(dsts) && d.local(dsts[j]) {
				j++
			}
			d.buf.InsertOwnedBatch(dsts[i:j], vals[i:j])
			i = j
			continue
		}
		d.remoteMu.Lock()
		d.remote.Add(dsts[i], vals[i])
		d.remoteMu.Unlock()
		d.remCount.Add(1)
		i++
	}
}

func (d *deviceGeneric[T]) generate(active []graph.VertexID, c *machine.Counters) error {
	if err := d.runGenerate(d.app, active, c, d.routeLocked, d.routeOwnedBatch); err != nil {
		return err
	}
	if d.opt.Scheme == SchemeLocking {
		d.fillScratch = d.buf.ColumnFills(d.fillScratch[:0])
		d.countContention(d.fillScratch, c)
		c.ColumnsUsed += int64(len(d.fillScratch))
	}
	return nil
}

// superstep runs one BSP superstep on this rank. Unlike the float32
// engine, convergence is detected after the update, by a second exchange
// round that carries the next active count: the superstep in which the
// group converges runs (and is charged) in full.
func (d *deviceGeneric[T]) superstep(active []graph.VertexID) (stepOutcome, error) {
	s := stepOutcome{c: machine.Counters{Iterations: 1}}
	d.buf.Reset()
	t := d.clock()
	if err := d.generate(active, &s.c); err != nil {
		return s, err
	}
	d.lap(&d.wall.generate, t)
	recv, _, err := d.exchange(d.remote, int64(len(active)), &s.c, &s.pt)
	if err != nil {
		return s, err
	}
	for _, m := range recv {
		d.buf.InsertOwned(m.Dst, m.Val)
	}
	t = d.clock()
	if s.next, err = d.processAndUpdate(&s.c); err != nil {
		return s, err
	}
	d.lap(&d.wall.process, t)
	s.pt.Generate = d.generateSeconds(s.c)
	s.pt.Process = d.cm.Process(s.c, d.opt.Dev.Threads(), false)
	s.pt.Update = d.cm.Update(s.c, d.opt.Dev.Threads())
	if d.hasPeers() {
		_, remoteActive, st, err := d.ep.ExchangeAll(make([][]comm.Msg[T], d.ep.Ranks()), int64(len(s.next)))
		if err != nil {
			return s, err
		}
		s.c.Exchanges++
		s.pt.Exchange += st.SimSeconds
		d.wall.exchange += st.WallNS
		s.converged = int64(len(s.next))+remoteActive == 0 && !d.fixed
	}
	return s, nil
}

// processAndUpdate walks every vertex with messages, reduces its list via
// the user Process, applies Update, and returns the next active set. The
// two steps are fused over the vertex-chunk schedule (each vertex's
// messages are consumed exactly once), but counted as two steps, matching
// the runtime structure.
func (d *deviceGeneric[T]) processAndUpdate(c *machine.Counters) ([]graph.VertexID, error) {
	n := int64(d.g.NumVertices())
	s, err := sched.New(n, sched.ChunkFor(n, d.opt.Threads))
	if err != nil {
		return nil, err
	}
	perThread := make([][]graph.VertexID, d.opt.Threads)
	var reduced, updated atomic.Int64
	var wg sync.WaitGroup
	var pc pipeline.PanicCollector
	for t := 0; t < d.opt.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			defer pc.Capture()
			if d.opt.Fault.PanicNow(d.rank, d.step, fault.PhaseProcess) || d.opt.Fault.PanicNow(d.rank, d.step, fault.PhaseUpdate) {
				panic(fmt.Sprintf("fault: injected panic, rank %d superstep %d phase process/update", d.rank, d.step))
			}
			var act []graph.VertexID
			var localReduced, localUpdated int64
			for {
				lo, hi, ok := s.Next()
				if !ok {
					break
				}
				for i := lo; i < hi; i++ {
					v := graph.VertexID(i)
					if !d.buf.Has(v) {
						continue
					}
					msgs := d.buf.Drain(v)
					res := d.app.Process(v, msgs)
					localReduced += int64(len(msgs))
					localUpdated++
					if d.app.Update(v, res) {
						act = append(act, v)
					}
				}
			}
			perThread[t] = act
			reduced.Add(localReduced)
			updated.Add(localUpdated)
		}(t)
	}
	wg.Wait()
	if err := pc.Err(); err != nil {
		return nil, err
	}
	var next []graph.VertexID
	for _, act := range perThread {
		next = append(next, act...)
	}
	c.ReducedMessages += reduced.Load()
	c.UpdatedVertices += updated.Load()
	c.TaskFetches += s.Fetches()
	c.Steps += 2
	return next, nil
}

// RunGeneric executes a structured-message app on a single modeled device.
func RunGeneric[T any](app AppGeneric[T], g *graph.CSR, opt Options) (Result, error) {
	if err := validateRunArgs(app, g); err != nil {
		return Result{}, err
	}
	d, err := newDeviceGeneric(app, g, opt, 0, nil, nil)
	if err != nil {
		return Result{}, err
	}
	return runSingle[T](d, app.Init(g))
}

// RunGenericHetero executes a structured-message app across a group of
// N >= 2 modeled devices under the same supervisor as RunF32Hetero:
// exchange deadlines, fault injection, quorum failure attribution and
// cooperative abort all apply. Checkpoint-based recovery needs the app to
// implement checkpoint.Snapshotter (see docs/robustness.md); without it a
// rank failure surfaces as an error and checkpoint options are rejected.
func RunGenericHetero[T any](app AppGeneric[T], g *graph.CSR, assign []int32, deviceOpts ...Options) (HeteroResult, error) {
	if err := validateRunArgs(app, g); err != nil {
		return HeteroResult{}, err
	}
	return runGroup(app, g, assign, deviceOpts, func(opt Options, rank int, assign []int32, ep *comm.Endpoint[T]) (device[T], error) {
		return newDeviceGeneric(app, g, opt, rank, assign, ep)
	})
}
