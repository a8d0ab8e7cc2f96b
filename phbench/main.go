// Command phbench is PeerHood's benchmark: four workloads that each load
// one part of the middleware — the real-socket serving path, the discovery
// and storage write path, the sharded simulator, and the mobility path —
// measured end to end in an untraced run and layer by layer in a traced
// one.
//
//	bash phbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, including the tracing overhead. Lines before it
// are the human-readable report. README.md in this directory describes the
// workloads and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// env is what one measured phase of a workload gets.
type env struct {
	seed   int64
	budget time.Duration
	rec    *Recorder // nil: untraced
	state  string    // directory for files the run keeps
}

// line is one row of the human-readable report.
type line struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is one measured phase of a workload.
type result struct {
	setup     []float64 // seconds per set-up
	op        Dist      // latency of the workload's unit of work, µs
	elapsed   time.Duration
	completed int
	attempted int
	failed    int
	problems  []string // failed output checks; any makes the run incorrect
	report    []line
	layers    map[string]float64 // counter-derived per-layer metrics
}

func newResult() *result { return &result{layers: map[string]float64{}} }

func (r *result) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) add(name string, v float64, unit string, n int) {
	r.report = append(r.report, line{name, v, unit, n})
}

// timing reports a latency distribution by the percentile rule: its
// median, its p99 when that has minBeyond samples above it, and the
// highest percentile that does.
func (r *result) timing(name string, d *Dist) {
	if v, ok := d.Quantile(50); ok {
		r.add(name+"_p50_us", v, "us", d.N())
	}
	if v, ok := d.Quantile(99); ok {
		r.add(name+"_p99_us", v, "us", d.N())
	}
	if p, v, ok := d.Tail(); ok {
		r.add(name+"_tail_us("+pctLabel(p)+")", v, "us", d.N())
	}
	r.add(name+"_fail_share", FailShare(d.N(), d.Failed()), "share", d.N())
}

// workload is one named workload. tail is the percentile its op_tail_us
// reports. It is fixed per workload, chosen so that even a traced half
// (half of --seconds) has well over ten operations above it: a tail that
// moved up the ladder as a faster program completed more operations would
// read as a regression, and the traced and untraced halves would compare
// different percentiles. A run with too few operations for it fails.
type workload struct {
	name string
	tail float64
	run  func(e *env) (*result, error)
}

var workloads = []workload{
	{"rush-tcp", 99.9, runRush},                   // ~110k lifecycles per 10 s
	{"plaza-sync", 99, runPlaza},                  // ~3-4.5k node rounds per 10 s
	{"metropolis-100k", metroTail, runMetropolis}, // at least 100 supersteps
	{"archipelago-walk", 90, runArchipelago},      // ~1100-1300 walks per 10 s
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd derives the end-to-end metrics every workload reports. Each
// workload defines its unit of work (a connection lifecycle, a node's
// discovery round, a superstep, a corridor walk); see README.md.
func endToEnd(wl *workload, r *result) (map[string]metric, error) {
	if len(r.setup) == 0 || r.elapsed <= 0 {
		return nil, fmt.Errorf("no set-up or no measured time")
	}
	p50, ok := r.op.Quantile(50)
	if !ok {
		return nil, fmt.Errorf("%d operations are too few for a median", r.op.N())
	}
	tail, ok := r.op.Quantile(wl.tail)
	if !ok {
		return nil, fmt.Errorf("%d operations are too few for a %s", r.op.N(), pctLabel(wl.tail))
	}
	return map[string]metric{
		"setup_s":    {median(r.setup), "s"},
		"ops_per_s":  {float64(r.completed) / r.elapsed.Seconds(), "1/s"},
		"op_p50_us":  {p50, "us"},
		"op_tail_us": {tail, "us"},
	}, nil
}

// median is the plain median of a handful of values; set-up is repeated
// only a few times per run, too few for the percentile rule.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func main() {
	name := flag.String("workload", "", "workload: rush-tcp, plaza-sync, metropolis-100k or archipelago-walk")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	state := flag.String("state-dir", ".bench_build/phbench", "directory for span files and replay digests")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "phbench: need --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	if err := os.MkdirAll(*state, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "phbench:", err)
		os.Exit(1)
	}
	budget := time.Duration(*seconds) * time.Second
	var out *output
	var err error
	if *trace == 0 {
		out, err = untraced(wl, &env{seed: *seed, budget: budget, state: *state})
	} else {
		out, err = traced(wl, &env{seed: *seed, budget: budget, state: *state})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "phbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	for k, m := range out.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			// A percentile that lands on a failed operation: report the
			// worst representable latency rather than drop the metric.
			m.Value = math.MaxFloat64
			out.Metrics[k] = m
		}
	}
	js, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "phbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(js))
}

func untraced(wl *workload, e *env) (*output, error) {
	r, err := wl.run(e)
	if err != nil {
		return nil, err
	}
	m, err := endToEnd(wl, r)
	if err != nil {
		return nil, err
	}
	printReport(wl, e.seed, "untraced", r, m)
	return &output{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// traced runs the workload twice on the same seed, each for half the
// budget: untraced first (the runtime metrics are read around it, so they
// describe the program rather than the tracer), then with spans recorded
// around every layer call. The difference in each end-to-end metric
// between the two halves is the tracing overhead.
func traced(wl *workload, e *env) (*output, error) {
	half := *e
	half.budget = e.budget / 2
	rt0 := readRuntime()
	base, err := wl.run(&half)
	if err != nil {
		return nil, err
	}
	rt := readRuntime().since(rt0)
	baseM, err := endToEnd(wl, base)
	if err != nil {
		return nil, err
	}

	half.rec = NewRecorder()
	tr, err := wl.run(&half)
	if err != nil {
		return nil, err
	}
	trM, err := endToEnd(wl, tr)
	if err != nil {
		return nil, err
	}
	spans := half.rec.Spans()
	layers := layerMetrics(tr, summarize(spans), rt)
	for _, k := range []string{"setup_s", "ops_per_s", "op_p50_us", "op_tail_us"} {
		layers["trace.overhead_"+k] = ratio(trM[k].Value-baseM[k].Value, baseM[k].Value)
	}
	layers["trace.spans"] = float64(len(spans))

	printReport(wl, e.seed, "untraced half", base, baseM)
	printReport(wl, e.seed, "traced half", tr, trM)
	spanFile := filepath.Join(e.state, "spans-"+wl.name+".tsv")
	if err := half.rec.WriteTSV(spanFile); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("# %d spans written to %s\n", len(spans), spanFile)

	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{layers[l.name], l.unit}
		fmt.Printf("%-18s %-34s %14.4f %s\n", wl.name, l.name, layers[l.name], l.unit)
	}
	problems := append(base.problems, tr.problems...)
	return &output{
		Correct:   len(problems) == 0,
		Attempted: base.attempted + tr.attempted,
		Failed:    base.failed + tr.failed,
		Metrics:   m,
	}, nil
}

func printReport(wl *workload, seed int64, phase string, r *result, m map[string]metric) {
	name := wl.name
	fmt.Printf("# %s seed %d, %s: %d ops attempted, %d failed, %.2f s measured\n",
		name, seed, phase, r.attempted, r.failed, r.elapsed.Seconds())
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := r.op.N()
		if k == "setup_s" {
			n = len(r.setup)
		}
		fmt.Printf("%-18s %-34s %14.4f %-6s n=%d\n", name, k, m[k].Value, m[k].Unit, n)
	}
	fmt.Printf("%-18s %-34s %14s\n", name, "op_tail_us is", pctLabel(wl.tail))
	fmt.Printf("%-18s %-34s %14.4f %-6s n=%d\n", name, "fail_share", FailShare(r.attempted, r.failed), "share", r.attempted)
	for _, l := range r.report {
		fmt.Printf("%-18s %-34s %14.4f %-6s n=%d\n", name, l.name, l.value, l.unit, l.n)
	}
	for _, p := range r.problems {
		fmt.Printf("%-18s CHECK FAILED: %s\n", name, strings.TrimSpace(p))
	}
}
