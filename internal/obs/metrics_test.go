package obs

import (
	"encoding/json"
	"expvar"
	"sync"
	"testing"
)

// TestCounterConcurrency hammers one registry counter from many
// goroutines; run with -race.
func TestCounterConcurrency(t *testing.T) {
	c := GetCounter("test.concurrent")
	before := c.Value() // registry metrics are process-global
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value() - before; got != workers*perWorker {
		t.Fatalf("counter delta = %d, want %d", got, workers*perWorker)
	}
	if GetCounter("test.concurrent") != c {
		t.Fatal("registry returned a different counter for the same name")
	}
}

func TestNilMetricReceivers(t *testing.T) {
	var c *Counter
	c.Add(1)
	if c.Value() != 0 {
		t.Fatal("nil counter non-zero")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge non-zero")
	}
}

func TestGauge(t *testing.T) {
	g := GetGauge("test.gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %v, want -1", got)
	}
}

// TestGaugeAdd pins the atomic up/down semantics: concurrent deltas must
// all land (a Set-after-read loop would lose updates under contention).
func TestGaugeAdd(t *testing.T) {
	g := GetGauge("test.gauge_add")
	g.Set(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g.Add(1)
				g.Add(-1)
			}
			g.Add(2)
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 16 {
		t.Fatalf("gauge = %v, want 16 after 8×(+2) net", got)
	}
	var nilG *Gauge
	nilG.Add(1) // must not panic
}

// TestExpvarExport checks the registry is visible through expvar as JSON.
func TestExpvarExport(t *testing.T) {
	before := GetCounter("test.export").Value()
	GetCounter("test.export").Add(7)
	v := expvar.Get("mpa")
	if v == nil {
		t.Fatal("expvar \"mpa\" not published")
	}
	var parsed struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(v.String()), &parsed); err != nil {
		t.Fatalf("expvar output is not JSON: %v", err)
	}
	if got := parsed.Counters["test.export"] - before; got != 7 {
		t.Fatalf("exported counter delta = %d, want 7", got)
	}
}
