package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) for the metric registry,
// served as /metrics on the -debug-addr server. Stdlib-only: the format
// is simple enough that a renderer is smaller than a client library.
//
// Naming follows Prometheus conventions: every series carries the "mpa_"
// namespace, registry dots become underscores, counters gain a "_total"
// suffix, and histograms render as cumulative _bucket/_sum/_count series.
// A handful of runtime/metrics values are appended under "go_" so a
// scrape captures process health alongside pipeline metrics.

// PromHandler serves the registry (plus selected runtime metrics) in
// Prometheus text exposition format.
func PromHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, SnapshotMetrics())
		writeRuntimeProm(w)
	})
}

// WritePrometheus renders one registry snapshot in text exposition
// format. Series are emitted in sorted name order so the output is
// deterministic for a fixed snapshot (the exposition golden test).
func WritePrometheus(w io.Writer, snap MetricsSnapshot) {
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name) + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n", pn)
		fmt.Fprintf(w, "%s %d\n", pn, snap.Counters[name])
	}

	names = names[:0]
	for name := range snap.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(w, "%s %s\n", pn, promFloat(snap.Gauges[name]))
	}

	names = names[:0]
	for name := range snap.LogHistograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		writePromLogHistogram(w, promName(name), snap.LogHistograms[name])
	}
}

// writePromLogHistogram renders one log-spaced histogram. Only the
// boundaries of non-empty buckets are emitted (the layout has ~285
// buckets; a dense rendering would dwarf the rest of the scrape), which
// is valid exposition: cumulative counts at any subset of bounds plus
// le="+Inf" describe the same distribution.
func writePromLogHistogram(w io.Writer, pn string, h LogHistogramSnapshot) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		if b.Index > logHistBuckets {
			break // overflow: covered by the +Inf line
		}
		upper := math.Pow(h.Growth, float64(b.Index))
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, promFloat(upper), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
	fmt.Fprintf(w, "%s_sum %s\n", pn, promFloat(h.Sum))
	fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
}

// promName maps a registry name ("cache.inference.mem_hits") onto a
// namespaced Prometheus metric name ("mpa_cache_inference_mem_hits").
// Any character outside [a-zA-Z0-9_] becomes an underscore.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 4)
	b.WriteString("mpa_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float the way Prometheus expects: shortest exact
// decimal, with +Inf/-Inf/NaN spelled out.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// runtimeSamples are the runtime/metrics series exposed on /metrics,
// mapped onto conventional go_* names.
var runtimeSamples = []struct {
	runtime string
	prom    string
	typ     string
}{
	{"/gc/heap/allocs:bytes", "go_gc_heap_allocs_bytes_total", "counter"},
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles_total", "counter"},
	{"/memory/classes/heap/objects:bytes", "go_memstats_heap_objects_bytes", "gauge"},
	{"/memory/classes/total:bytes", "go_memstats_total_bytes", "gauge"},
	{"/sched/goroutines:goroutines", "go_goroutines", "gauge"},
}

// writeRuntimeProm appends the selected runtime/metrics series plus
// GOMAXPROCS. Unsupported kinds (runtime version drift) are skipped.
func writeRuntimeProm(w io.Writer) {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, rs := range runtimeSamples {
		samples[i].Name = rs.runtime
	}
	metrics.Read(samples)
	for i, rs := range runtimeSamples {
		var v float64
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			v = float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			v = samples[i].Value.Float64()
		default:
			continue
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", rs.prom, rs.typ)
		fmt.Fprintf(w, "%s %s\n", rs.prom, promFloat(v))
	}
	fmt.Fprintf(w, "# TYPE go_gomaxprocs gauge\ngo_gomaxprocs %d\n", runtime.GOMAXPROCS(0))
}
