// Command perfbench is the repository benchmark. It drives an in-process
// `mpa serve` daemon (tenant.New + serve.NewSharded) over loopback HTTP
// through one of four workloads, checks every answer, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object {correct, attempted, failed, metrics}. With -trace 1 it
// runs the same workload once more with client spans recorded and then
// times each layer's public entry points directly, printing the
// per-layer metrics instead. README.md in this directory defines the
// workloads, the metrics, and what each layer metric should move.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench -workload cold_start|warm_serve|ingest_refresh|restart \
//	          -seed N -seconds S -trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// e2eMetrics are the end-to-end metrics every workload reports with
// -trace 0, with their units.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"first_answer_s", "s"},
	{"capacity_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"ingest_ms", "ms"},
	{"refresh_ms", "ms"},
	{"heap_mb", "MB"},
}

var workloads = map[string]func(*run) error{
	"cold_start":     func(r *run) error { return r.coldStart(false) },
	"restart":        func(r *run) error { return r.coldStart(true) },
	"warm_serve":     (*run).warmServe,
	"ingest_refresh": (*run).ingestRefresh,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark invocation's state.
type run struct {
	seed    uint64
	seconds time.Duration
	dir     string  // per-run scratch directory inside the checkout
	tr      *tracer // nil unless -trace 1

	attempted, failed atomic.Int64
	failMu            sync.Mutex
	failures          int

	metrics map[string]metric
}

func (r *run) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and reports the first few.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.failMu.Lock()
	defer r.failMu.Unlock()
	r.failures++
	if r.failures <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
}

func main() {
	workload := flag.String("workload", "", "cold_start, warm_serve, ingest_refresh or restart")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 15, "how long the timed phase runs")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		dir:     filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		metrics: map[string]metric{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	err := w(r)
	os.RemoveAll(r.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	want := e2eMetrics
	if r.tr != nil {
		want = layerMetrics
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", *workload, *seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", r.tr.len(), path)
	}
	res := result{Metrics: map[string]metric{}}
	names := make([]string, 0, len(want))
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok || v.Unit != m.unit {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not report %s in %s\n", *workload, m.name, m.unit)
			os.Exit(1)
		}
		res.Metrics[m.name] = v
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	res.Attempted = r.attempted.Load()
	res.Failed = r.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Printf("attempted %d, failed %d\n", res.Attempted, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank p-quantile of ds in milliseconds.
func quantileMS(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(s[i])
}

func ms(d time.Duration) float64   { return float64(d) / 1e6 }
func secs(d time.Duration) float64 { return d.Seconds() }
