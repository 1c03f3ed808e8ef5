package obs

import (
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the text exposition format byte-for-byte on
// a fixed snapshot: counter/gauge/histogram type lines, sorted series
// order, sparse cumulative buckets, and float rendering.
func TestPrometheusGolden(t *testing.T) {
	snap := MetricsSnapshot{
		Counters: map[string]int64{
			"inference.snapshots_parsed": 42,
			"cache.inference.mem_hits":   7,
		},
		Gauges: map[string]float64{
			"pipeline.networks":   120,
			"dataset.build_ratio": 0.25,
		},
		LogHistograms: map[string]LogHistogramSnapshot{
			"inference.month_ns": {
				Growth: LogHistGrowth,
				Buckets: []LogBucket{
					{Index: 0, Count: 1},
					{Index: 145, Count: 5},
					{Index: 170, Count: 3},
					{Index: logHistOverflowIndex, Count: 1},
				},
				Count: 10,
				Sum:   1.25e10,
				Min:   0.5,
				Max:   7e11,
			},
		},
	}
	var b strings.Builder
	WritePrometheus(&b, snap)
	got := b.String()

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// expositionLine matches one sample line of the text format:
// name{labels} value. Comment lines are handled separately.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]*"\})? ([0-9.eE+-]+|\+Inf|-Inf|NaN)$`)

// TestPromHandlerLive scrapes the live handler and checks that (i) every
// registered counter and histogram appears, and (ii) every line is
// well-formed exposition text.
func TestPromHandlerLive(t *testing.T) {
	GetCounter("promtest.events").Add(3)
	GetGauge("promtest.level").Set(1.5)
	GetLogHistogram("promtest.latency_ns").Observe(12e6)

	rec := httptest.NewRecorder()
	PromHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content-type = %q, want text/plain exposition", ct)
	}

	snap := SnapshotMetrics()
	for name := range snap.Counters {
		if !strings.Contains(body, promName(name)+"_total ") {
			t.Errorf("counter %q missing from /metrics", name)
		}
	}
	for name := range snap.Gauges {
		if !strings.Contains(body, promName(name)+" ") {
			t.Errorf("gauge %q missing from /metrics", name)
		}
	}
	for name := range snap.LogHistograms {
		pn := promName(name)
		for _, suffix := range []string{`_bucket{le="+Inf"} `, "_sum ", "_count "} {
			if !strings.Contains(body, pn+suffix) {
				t.Errorf("histogram %q missing %s series from /metrics", name, suffix)
			}
		}
	}

	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("line %d: malformed TYPE comment %q", i+1, line)
			}
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("line %d: not valid exposition text: %q", i+1, line)
		}
	}
}

// TestPromHistogramCumulative checks the bucket math: snapshot buckets
// are per-bucket counts, exposition buckets must be cumulative at each
// non-empty bucket's upper bound (growth^index) and end at the total
// count, with the overflow bucket only in le="+Inf".
func TestPromHistogramCumulative(t *testing.T) {
	var b strings.Builder
	writePromLogHistogram(&b, "mpa_x", LogHistogramSnapshot{
		Growth: LogHistGrowth,
		Buckets: []LogBucket{
			{Index: 0, Count: 5},
			{Index: 2, Count: 3},
			{Index: logHistOverflowIndex, Count: 2},
		},
		Count: 10,
		Sum:   9,
	})
	want := "# TYPE mpa_x histogram\n" +
		"mpa_x_bucket{le=\"1\"} 5\n" +
		"mpa_x_bucket{le=\"" + promFloat(math.Pow(LogHistGrowth, 2)) + "\"} 8\n" +
		"mpa_x_bucket{le=\"+Inf\"} 10\n" +
		"mpa_x_sum 9\n" +
		"mpa_x_count 10\n"
	if b.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}
