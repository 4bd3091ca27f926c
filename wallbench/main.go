// Command wallbench is hetgraph's wall-clock benchmark. It generates its
// inputs from one seed, runs a workload for a fixed number of seconds,
// checks every output against an independent oracle, and prints the
// metrics. With -trace 0 it prints the end-to-end metrics of an untraced
// run; with -trace 1 it prints per-layer metrics from a traced run and
// writes the spans it recorded. See README.md for the workloads, the
// metrics and why they were chosen.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash wallbench/run.sh --workload pagerank-mic --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	dir      string // scratch directory for this invocation's files
	procs    int    // host parallelism: the cap on load goroutines
}

// deadline reports whether a measurement that started at t0 is over.
func (c config) deadline(t0 time.Time) bool { return time.Since(t0) >= c.seconds }

// metric is one reported number with its unit and sample count.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// report collects a run's verdict and metrics.
type report struct {
	attempted, failed int
	failures          []string
	metrics           []metric
}

func (r *report) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

// fail counts one failed operation and remembers why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// endToEnd lists the untraced run's metrics with their units; every
// workload reports all of them (see README.md for each one's definition).
var endToEnd = [][2]string{
	{"run_s", "s"}, {"sim_s", "s"}, {"setup_s", "s"}, {"alloc_mb", "MB"},
	{"job_s_p50", "s"}, {"job_s_p90", "s"}, {"jobs_per_s", "1/s"},
}

// perLayer lists the traced run's metrics with their units. A layer the
// workload does not exercise reports 0 with no samples.
var perLayer = [][2]string{
	{"core.r0.generate_s", "s"}, {"core.r0.process_s", "s"}, {"core.r0.update_s", "s"}, {"core.r0.exchange_s", "s"},
	{"core.r0.generate_ns_per_msg", "ns"}, {"core.r0.generate_wall_over_sim", "ratio"},
	{"core.r0.process_ns_per_msg", "ns"}, {"core.r0.process_wall_over_sim", "ratio"},
	{"core.r1.generate_s", "s"}, {"core.r1.process_s", "s"}, {"core.r1.update_s", "s"}, {"core.r1.exchange_s", "s"},
	{"core.r1.generate_ns_per_msg", "ns"}, {"core.r1.generate_wall_over_sim", "ratio"},
	{"core.r1.process_ns_per_msg", "ns"}, {"core.r1.process_wall_over_sim", "ratio"},
	{"core.long_pole_share.r0", "frac"}, {"core.long_pole_share.r1", "frac"},
	{"core.trace_overhead_frac", "frac"}, {"core.sim_drift_frac", "frac"}, {"core.pin_sim_delta_frac", "frac"},
	{"csb.build_s", "s"}, {"csb.insert_ns_per_msg", "ns"}, {"csb.footprint_mb", "MB"},
	{"csb.footprint_over_naive", "ratio"}, {"csb.columns_used", "count"},
	{"pipeline.locking_ns_per_msg", "ns"}, {"pipeline.pipelined_ns_per_msg", "ns"}, {"pipeline.batched_ns_per_msg", "ns"},
	{"comm.msgs", "count"}, {"comm.bytes", "B"}, {"comm.retransmits", "count"}, {"comm.combine_ratio", "ratio"},
	{"metis.partition_s", "s"}, {"partition.cross_edges", "count"}, {"partition.balance_error", "frac"},
	{"graph.load_s", "s"},
	{"checkpoint.commit_ms_p50", "ms"}, {"checkpoint.commit_ms_p90", "ms"}, {"checkpoint.journal_append_us_p50", "us"},
	{"serve.submit_ms_p50", "ms"}, {"serve.hit_ms_p50", "ms"}, {"serve.queue_wait_s_p50", "s"},
	{"serve.engine_s_p50", "s"}, {"serve.cache_hit_ratio", "frac"}, {"serve.shed", "count"}, {"serve.retries", "count"},
	{"seqref.run_s", "s"}, {"runtime.heap_peak_mb", "MB"}, {"runtime.gc_pause_ms", "ms"},
}

// conform orders the report's metrics as the list does, fills a metric the
// workload does not exercise with 0 when allowed, and rejects any metric or
// unit the list does not name.
func (r *report) conform(list [][2]string, fillMissing bool) error {
	have := map[string]metric{}
	for _, m := range r.metrics {
		if _, dup := have[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		have[m.name] = m
	}
	out := make([]metric, 0, len(list))
	for _, nu := range list {
		m, ok := have[nu[0]]
		switch {
		case !ok && !fillMissing:
			return fmt.Errorf("metric %s not reported", nu[0])
		case !ok:
			m = metric{name: nu[0], unit: nu[1]}
		case m.unit != nu[1]:
			return fmt.Errorf("metric %s has unit %s, want %s", m.name, m.unit, nu[1])
		}
		delete(have, nu[0])
		out = append(out, m)
	}
	for name := range have {
		return fmt.Errorf("metric %s is not in the benchmark's list", name)
	}
	r.metrics = out
	return nil
}

type workloadFunc func(cfg config, tr *tracer, rep *report) error

var workloads = map[string]workloadFunc{
	"pagerank-mic": runPageRankMIC,
	"sssp-hetero":  runSSSPHetero,
	"serve-mix":    runServeMix,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		cfg     config
		seconds int
		trace   int
		out     string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: pagerank-mic | sssp-hetero | serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&seconds, "seconds", 15, "measurement length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&out, "out", filepath.Join(".bench_build", "wallbench"), "directory for scratch files and span dumps")
	flag.Parse()
	wl, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "wallbench: need -workload (pagerank-mic | sssp-hetero | serve-mix), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1
	cfg.procs = runtime.GOMAXPROCS(0)
	cfg.dir = filepath.Join(out, fmt.Sprintf("%s-s%d-p%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.dir)

	tr := newTracer(cfg.traced)
	root := tr.open("bench."+cfg.workload, 0)
	var rep report
	err := wl(cfg, tr, &rep)
	tr.close(root)
	if err == nil && cfg.traced {
		err = rep.conform(perLayer, true)
	} else if err == nil {
		err = rep.conform(endToEnd, false)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		return 1
	}
	if cfg.traced {
		path := filepath.Join(out, fmt.Sprintf("spans-%s-s%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "wallbench: writing spans:", err)
			return 1
		}
		printSelf(tr.selfSeconds(), path)
	}
	return emit(&rep)
}

// printSelf prints each layer's self time from the traced run.
func printSelf(self map[string]float64, path string) {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Printf("self time per layer (spans in %s):\n", path)
	for _, l := range layers {
		fmt.Printf("  %-12s %10.4f s\n", l, self[l])
	}
}

// emit prints the human-readable table, then the JSON verdict as the last
// line of standard output. It returns the exit code: 1 on any failure.
func emit(rep *report) int {
	for _, m := range rep.metrics {
		if m.samples == 0 {
			fmt.Printf("%-40s %16s %-6s (layer not exercised)\n", m.name, "-", m.unit)
			continue
		}
		fmt.Printf("%-40s %16.6g %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	for _, f := range rep.failures {
		fmt.Println("FAIL:", f)
	}
	correct := rep.failed == 0 && rep.attempted > 0
	fmt.Printf("verdict: correct=%v attempted=%d failed=%d fail_frac=%.4g\n",
		correct, rep.attempted, rep.failed, float64(rep.failed)/math.Max(1, float64(rep.attempted)))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range rep.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, rep.attempted, rep.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !correct {
		return 1
	}
	return 0
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
