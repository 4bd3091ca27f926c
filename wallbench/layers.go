package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"hetgraph/internal/checkpoint"
	"hetgraph/internal/core"
	"hetgraph/internal/csb"
	"hetgraph/internal/graph"
	"hetgraph/internal/machine"
	"hetgraph/internal/pipeline"
	"hetgraph/internal/seqref"
	"hetgraph/internal/serve"
)

// replayReps is how many timed passes each layer replay makes; the metric
// is the median pass.
const replayReps = 3

// replayInput is the workload input a traced run replays through single
// layers: the graph, the rank whose local messages are replayed (owned; nil
// means every vertex), that rank's device, and the problem the sequential
// baseline solves.
type replayInput struct {
	g        *graph.CSR
	owned    func(graph.VertexID) bool
	dev      machine.DeviceSpec
	seqApp   func() core.AppF32
	seqIters int
}

// layerReplays times the csb, pipeline, checkpoint-journal and seqref
// layers from outside, each on the workload's own input.
func layerReplays(cfg config, tr *tracer, rep *report, in replayInput) error {
	owned := in.owned
	if owned == nil {
		owned = func(graph.VertexID) bool { return true }
	}
	var active []graph.VertexID
	var msgs int64
	for v := 0; v < in.g.NumVertices(); v++ {
		if !owned(graph.VertexID(v)) {
			continue
		}
		active = append(active, graph.VertexID(v))
		for _, u := range in.g.Neighbors(graph.VertexID(v)) {
			if owned(u) {
				msgs++
			}
		}
	}
	gen := func(v graph.VertexID, emit func(graph.VertexID, float32)) {
		for _, u := range in.g.Neighbors(v) {
			if owned(u) {
				emit(u, 1)
			}
		}
	}

	var buf *csb.Buffer
	var builds []float64
	for i := 0; i < replayReps; i++ {
		b, d, err := timed(tr, "csb.build", func() (*csb.Buffer, error) {
			return csb.Build(in.g, csb.Config{Width: in.dev.SIMDWidth, K: 2, Mode: csb.Dynamic})
		})
		if err != nil {
			return err
		}
		buf = b
		builds = append(builds, d)
	}
	rep.add("csb.build_s", "s", median(builds), len(builds))

	// Buffer.Insert replay: every local edge once per pass, split over one
	// goroutine per core.
	inserts := passes(tr, buf, "csb.insert", func() error {
		var wg sync.WaitGroup
		chunk := (len(active) + cfg.procs - 1) / cfg.procs
		for lo := 0; lo < len(active); lo += chunk {
			part := active[lo:min(lo+chunk, len(active))]
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, v := range part {
					gen(v, buf.Insert)
				}
			}()
		}
		wg.Wait()
		return nil
	})
	rep.add("csb.insert_ns_per_msg", "ns", median(inserts)*1e9/float64(msgs), len(inserts))
	rep.add("csb.columns_used", "count", float64(buf.ColumnsUsed()), 1)
	rep.add("csb.footprint_mb", "MB", float64(buf.FootprintBytes())/(1<<20), 1)
	rep.add("csb.footprint_over_naive", "ratio", float64(buf.FootprintBytes())/float64(buf.NaiveFootprintBytes()), 1)

	// Generation schemes over the same edges into the same buffer. Each
	// pipelined pass has one worker and one mover: exactly one producer and
	// one consumer goroutine per SPSC ring.
	schemes := []struct {
		name string
		run  func() error
	}{
		{"locking", func() error {
			_, err := pipeline.RunLocking(active, cfg.procs, gen, buf.Insert)
			return err
		}},
		{"pipelined", func() error {
			_, err := pipeline.RunPipelined(active, 1, 1, gen, buf.InsertOwned)
			return err
		}},
		{"batched", func() error {
			_, err := pipeline.RunPipelinedBatched(active, 1, 1, pipeline.DefaultBatch, gen, buf.InsertOwnedBatch)
			return err
		}},
	}
	for _, s := range schemes {
		ds := passes(tr, buf, "pipeline."+s.name, s.run)
		if len(ds) < replayReps {
			return fmt.Errorf("pipeline.%s replay failed", s.name)
		}
		rep.add("pipeline."+s.name+"_ns_per_msg", "ns", median(ds)*1e9/float64(msgs), len(ds))
	}

	if err := journalReplay(cfg, tr, rep); err != nil {
		return err
	}

	// The plain single-threaded baseline on the same problem.
	app := in.seqApp()
	_, d, err := timed(tr, "seqref.run", func() (struct{}, error) {
		_, _, err := seqref.RunF32Seq(app, in.g, in.seqIters)
		return struct{}{}, err
	})
	if err != nil {
		return err
	}
	rep.add("seqref.run_s", "s", d, 1)
	return nil
}

// timed runs fn under a root span of the given name and returns its result
// and wall seconds.
func timed[T any](tr *tracer, name string, fn func() (T, error)) (T, float64, error) {
	id := tr.open(name, 0)
	t0 := time.Now()
	v, err := fn()
	d := time.Since(t0).Seconds()
	tr.close(id)
	return v, d, err
}

// passes times replayReps passes of fn into buf, resetting the buffer
// before each, and returns the wall seconds of the passes that succeeded.
func passes(tr *tracer, buf *csb.Buffer, name string, fn func() error) []float64 {
	var ds []float64
	for i := 0; i < replayReps; i++ {
		buf.Reset()
		if _, d, err := timed(tr, name, func() (struct{}, error) { return struct{}{}, fn() }); err == nil {
			ds = append(ds, d)
		}
	}
	return ds
}

// journalAppends is how many records the journal replay appends.
const journalAppends = 40

// journalReplay appends records the size of serve's "completed" journal
// entries to a fresh checkpoint.Journal and reports the median append,
// which includes its fsync.
func journalReplay(cfg config, tr *tracer, rep *report) error {
	dir := filepath.Join(cfg.dir, "journal")
	j, err := checkpoint.OpenJournal(dir, nil)
	if err != nil {
		return err
	}
	defer j.Close()
	payload, err := json.Marshal(struct {
		ID       string           `json:"id"`
		State    string           `json:"state"`
		Attempt  int              `json:"attempt"`
		Result   *serve.JobResult `json:"result"`
		UnixNano int64            `json:"unix_nano"`
	}{"j00000042", serve.StateCompleted, 1, &serve.JobResult{
		ResultFingerprint: "0123456789abcdef", Iterations: 30, Converged: true,
		SimSeconds: 0.026375, WallSeconds: 0.5,
	}, time.Now().UnixNano()})
	if err != nil {
		return err
	}
	var ds []float64
	for i := 0; i < journalAppends; i++ {
		_, d, err := timed(tr, "checkpoint.journal_append", func() (struct{}, error) {
			return struct{}{}, j.Append(payload)
		})
		if err != nil {
			return err
		}
		ds = append(ds, d)
	}
	rep.add("checkpoint.journal_append_us_p50", "us", median(ds)*1e6, len(ds))
	return nil
}
