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

// delivery is one reduced message ready for vertex updating.
type delivery struct {
	v   graph.VertexID
	val float32
}

// deviceF32 is one device's engine state for a float32-message application.
type deviceF32 struct {
	engine[float32]
	app    AppF32
	g      *graph.CSR
	buf    *csb.Buffer
	remote remoteCombinerF32

	// din holds the direction-optimizing state (transpose, bitmap
	// frontiers, switch heuristic); nil for push-only configurations, which
	// keeps the original hot path branch-free beyond one nil check.
	din *directionState
	// sortLanes canonicalizes reduction order for order-sensitive apps
	// (float32 sums): each CSB lane is sorted ascending before folding, so
	// repeated runs reduce identical multisets in identical order.
	sortLanes bool
}

// remoteCombinerF32 is the remote message buffer contract the engine needs:
// the eager comm.Combiner for exactly-associative reductions, or the
// order-canonicalizing comm.SortingCombiner for order-sensitive ones.
type remoteCombinerF32 interface {
	Add(dst graph.VertexID, v float32)
	DrainRouted(out [][]comm.Msg[float32], rankOf func(graph.VertexID) int) [][]comm.Msg[float32]
	Len() int
}

func newDeviceF32(app AppF32, g *graph.CSR, opt Options, rank int, assign []int32, ep *comm.Endpoint[float32]) (*deviceF32, error) {
	d := &deviceF32{app: app, g: g}
	if err := d.init(app, opt, rank, assign, ep); err != nil {
		return nil, err
	}
	var err error
	d.buf, err = csb.Build(g, csb.Config{
		Width:    d.opt.Dev.SIMDWidth,
		K:        d.opt.K,
		Identity: app.Identity(),
		Mode:     d.opt.CSBMode,
	})
	if err != nil {
		return nil, err
	}
	if assign != nil {
		if IsOrderSensitive(app) {
			d.remote = comm.NewSortingCombiner[float32](g.NumVertices(), app.ReduceScalar)
		} else {
			d.remote = comm.NewCombiner(g.NumVertices(), app.ReduceScalar)
		}
	}
	d.sortLanes = IsOrderSensitive(app)
	if d.opt.Direction != DirectionPush {
		if p, ok := app.(PullerF32); ok {
			d.din = newDirectionState(p, g, rank, assign)
		} else if d.opt.Direction == DirectionPull {
			return nil, &InvalidOptionsError{Field: "Direction", Reason: fmt.Sprintf("pull requires the application to implement core.PullerF32; %T does not (auto falls back to push)", app)}
		}
	}
	return d, nil
}

// route is the locking-scheme emit target: local messages enter the CSB
// through its synchronized insert, remote ones accumulate in the combiner.
func (d *deviceF32) route(dst graph.VertexID, val float32) {
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
// unique owner of every destination in the batch, so local runs go through
// the CSB's lock-free batch insert. The remote combiner is shared across
// movers and keeps its mutex (remote messages are rare relative to local
// ones for any sensible partition).
func (d *deviceF32) routeOwnedBatch(dsts []graph.VertexID, vals []float32) {
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

// generate runs the superstep's generate phase: it resolves the traversal
// direction (when the app supports pulling), then either runs the
// configured message-generation scheme (push) or emits only cut-edge
// messages (pull; see generatePull).
func (d *deviceF32) generate(active []graph.VertexID, c *machine.Counters) error {
	if d.din != nil {
		d.decideDirection(active)
		if d.din.mode == DirectionPull {
			return d.generatePull(active, c)
		}
	}
	if err := d.runGenerate(d.app, active, c, d.route, d.routeOwnedBatch); err != nil {
		return err
	}
	c.ColumnsUsed += d.buf.ColumnsUsed()
	if d.opt.Scheme == SchemeLocking {
		d.fillScratch = d.buf.ColumnFills(d.fillScratch[:0])
		d.countContention(d.fillScratch, c)
	}
	return nil
}

// superstep runs one BSP superstep on this rank. The implicit remote
// message exchange (Fig. 2) carries the superstep's active count, which
// doubles as the group's termination allreduce: when no vertex was active
// anywhere, nothing was generated and the run is over, so the superstep
// ends there as a convergence probe carrying only generate + exchange
// work. (The exchange's wall time — including the lockstep wait for the
// peers — is measured by comm.)
func (d *deviceF32) superstep(active []graph.VertexID) (stepOutcome, error) {
	s := stepOutcome{c: machine.Counters{Iterations: 1}}
	s.c.BufferResetBytes = d.buf.Reset()
	t := d.clock()
	if err := d.generate(active, &s.c); err != nil {
		return s, err
	}
	d.lap(&d.wall.generate, t)
	s.dir = d.direction()
	recv, remoteActive, err := d.exchange(d.remote, int64(len(active)), &s.c, &s.pt)
	if err != nil {
		return s, err
	}
	for _, m := range recv {
		d.buf.Insert(m.Dst, m.Val)
	}
	if int64(len(active))+remoteActive == 0 && !d.fixed {
		s.converged, s.probe = true, true
		return s, nil
	}
	t = d.clock()
	deliveries, err := d.process(&s.c)
	if err != nil {
		return s, err
	}
	t = d.lap(&d.wall.process, t)
	if s.next, err = d.update(deliveries, &s.c); err != nil {
		return s, err
	}
	d.lap(&d.wall.update, t)
	s.pt.Generate = d.generateSeconds(s.c)
	s.pt.Process = d.cm.Process(s.c, d.opt.Dev.Threads(), d.opt.Vectorized)
	// Pull supersteps add the bottom-up in-edge sweep to the process phase;
	// zero when no edges were scanned.
	s.pt.Process += d.cm.Pull(s.c, d.opt.Dev.Threads())
	s.pt.Update = d.cm.Update(s.c, d.opt.Dev.Threads())
	return s, nil
}

// process dispatches the superstep's process phase: the CSB reduction for
// push supersteps, or the bottom-up sweep (which also reduces the CSB's
// remote deliveries first) for pull supersteps.
func (d *deviceF32) process(c *machine.Counters) ([]delivery, error) {
	if d.din != nil && d.din.mode == DirectionPull {
		return d.processPull(c)
	}
	return d.processPush(c)
}

// processPush runs message processing over the CSB task units with dynamic
// scheduling, on the vectorized or scalar path, and returns the reduced
// deliveries.
func (d *deviceF32) processPush(c *machine.Counters) ([]delivery, error) {
	nTasks := int64(d.buf.NumTasks())
	s, err := sched.New(nTasks, sched.ChunkFor(nTasks, d.opt.Threads))
	if err != nil {
		return nil, err
	}
	vectorized := d.opt.Vectorized && d.app.Profile().Reducible
	perThread := make([][]delivery, d.opt.Threads)
	var reduced atomic.Int64
	var wg sync.WaitGroup
	var pc pipeline.PanicCollector
	for t := 0; t < d.opt.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			defer pc.Capture()
			if d.opt.Fault.PanicNow(d.rank, d.step, fault.PhaseProcess) {
				panic(fmt.Sprintf("fault: injected panic, rank %d superstep %d phase process", d.rank, d.step))
			}
			var out []delivery
			var lanes []csb.Lane
			var sortScratch []float32
			var localReduced int64
			for {
				lo, hi, ok := s.Next()
				if !ok {
					break
				}
				for task := lo; task < hi; task++ {
					arr, rows := d.buf.Task(int(task))
					if rows == 0 {
						continue
					}
					lanes = d.buf.Lanes(int(task), lanes[:0])
					if d.sortLanes {
						// Canonicalize each lane's fold order: the lane holds a
						// deterministic multiset (insertion order varies with
						// thread interleaving), so sorting it makes the
						// subsequent reduction — vectorized or scalar —
						// byte-deterministic. Identity padding is untouched and
						// exact under the fold.
						for _, l := range lanes {
							sortScratch = arr.SortLane(l.Lane, int(l.Count), sortScratch)
						}
					}
					if vectorized {
						d.app.ReduceVec(arr, rows)
						for _, l := range lanes {
							out = append(out, delivery{l.Vertex, arr.At(0, l.Lane)})
							localReduced += int64(l.Count)
						}
					} else {
						for _, l := range lanes {
							v := arr.At(0, l.Lane)
							for r := 1; r < int(l.Count); r++ {
								v = d.app.ReduceScalar(v, arr.At(r, l.Lane))
							}
							out = append(out, delivery{l.Vertex, v})
							localReduced += int64(l.Count)
						}
					}
				}
			}
			perThread[t] = out
			reduced.Add(localReduced)
		}(t)
	}
	wg.Wait()
	if err := pc.Err(); err != nil {
		return nil, err
	}
	var total int
	for _, out := range perThread {
		total += len(out)
	}
	deliveries := make([]delivery, 0, total)
	for _, out := range perThread {
		deliveries = append(deliveries, out...)
	}
	if vectorized {
		// Priced from the canonical column packing, not the rows just
		// reduced: those follow the racy column-allocation order.
		c.VecRows += d.buf.PackedRows()
	}
	c.ReducedMessages += reduced.Load()
	c.TaskFetches += s.Fetches()
	c.Steps++
	return deliveries, nil
}

// update applies the reduced messages with dynamic scheduling and returns
// the vertices active in the next iteration.
func (d *deviceF32) update(deliveries []delivery, c *machine.Counters) ([]graph.VertexID, error) {
	n := int64(len(deliveries))
	s, err := sched.New(n, sched.ChunkFor(n, d.opt.Threads))
	if err != nil {
		return nil, err
	}
	perThread := make([][]graph.VertexID, d.opt.Threads)
	var wg sync.WaitGroup
	var pc pipeline.PanicCollector
	for t := 0; t < d.opt.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			defer pc.Capture()
			if d.opt.Fault.PanicNow(d.rank, d.step, fault.PhaseUpdate) {
				panic(fmt.Sprintf("fault: injected panic, rank %d superstep %d phase update", d.rank, d.step))
			}
			var act []graph.VertexID
			for {
				lo, hi, ok := s.Next()
				if !ok {
					break
				}
				for i := lo; i < hi; i++ {
					dl := deliveries[i]
					if d.app.Update(dl.v, dl.val) {
						act = append(act, dl.v)
					}
				}
			}
			perThread[t] = act
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
	c.UpdatedVertices += n
	c.TaskFetches += s.Fetches()
	c.Steps++
	return next, nil
}

// RunF32 executes app on a single modeled device until no vertex is active
// or MaxIterations is reached.
func RunF32(app AppF32, g *graph.CSR, opt Options) (Result, error) {
	if err := validateRunArgs(app, g); err != nil {
		return Result{}, err
	}
	d, err := newDeviceF32(app, g, opt, 0, nil, nil)
	if err != nil {
		return Result{}, err
	}
	return runSingle[float32](d, app.Init(g))
}
