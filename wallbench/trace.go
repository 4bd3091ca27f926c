package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"hetgraph/internal/metrics"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's origin; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs measure the end-to-end metrics.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{origin: time.Now()}
}

// open starts a span now and returns its ID (0 on a nil tracer).
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.add(name, parent, time.Now(), time.Time{})
}

// close ends a span opened with open.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// add records a span with known bounds; a zero end leaves it open.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start.Sub(t.origin).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(t.origin).Nanoseconds()
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfSeconds returns each layer's self time: every span's duration minus
// the part of it that its children cover, summed per layer.
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		covered := coveredNS(children[s.ID], s.Start, s.End)
		self[layerOf(s.Name)] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// coveredNS returns how much of [lo, hi) the union of the intervals covers.
func coveredNS(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans and per-layer self times as JSON at path.
func (t *tracer) write(path string) error {
	self := t.selfSeconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span             `json:"spans"`
		Self  map[string]float64 `json:"self_s"`
	}{t.spans, self})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// sink is the benchmark's metrics.Sink. It keeps every phase sample, event
// and link record the program reports and, when traced, turns each phase
// sample and timed event into a span under the given parent.
type sink struct {
	tr     *tracer
	parent int

	mu     sync.Mutex
	phases []metrics.PhaseSample
	events []metrics.Event
	links  []metrics.LinkActivity
	integ  metrics.IntegritySnapshot
}

func newSink(tr *tracer, parent int) *sink { return &sink{tr: tr, parent: parent} }

// RecordPhase implements metrics.Sink. The engine reports a phase when it
// ends, so the span ends now and starts WallNS earlier.
func (s *sink) RecordPhase(p metrics.PhaseSample) {
	now := time.Now()
	s.mu.Lock()
	s.phases = append(s.phases, p)
	s.mu.Unlock()
	s.tr.add(fmt.Sprintf("core.r%d.%s", p.Rank, p.Phase), s.parent, now.Add(-time.Duration(p.WallNS)), now)
}

// RecordEvent implements metrics.Sink.
func (s *sink) RecordEvent(e metrics.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
	if e.Kind == metrics.EventCheckpoint && e.WallNS > 0 {
		end := time.Unix(0, e.UnixNano)
		s.tr.add("checkpoint.commit", s.parent, end.Add(-time.Duration(e.WallNS)), end)
	}
}

// RecordLinks implements metrics.LinkRecorder; a serve session reports once
// per job, so the records accumulate.
func (s *sink) RecordLinks(links []metrics.LinkActivity, integ metrics.IntegritySnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.links = append(s.links, links...)
	s.integ.Retransmits += integ.Retransmits
}
