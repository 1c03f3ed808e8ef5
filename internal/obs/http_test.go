package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestDebugMuxRoutes(t *testing.T) {
	mux := DebugMux()
	for _, path := range []string{
		"/metrics",
		"/debug/vars",
		"/debug/pprof/",
		"/debug/pprof/cmdline",
	} {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}

func TestDebugMuxIdempotent(t *testing.T) {
	// Regression: the handler set used to register on the process-global
	// http.DefaultServeMux, so building it twice (two Flags.Start calls,
	// or an embedder that also registers /metrics) panicked. DebugMux must
	// hand out one shared mux, and RegisterDebug must work on any number
	// of distinct muxes.
	if DebugMux() != DebugMux() {
		t.Fatal("DebugMux returned distinct muxes")
	}
	RegisterDebug(http.NewServeMux())
	RegisterDebug(http.NewServeMux())
}

func TestFlagsStartTwiceServesBoth(t *testing.T) {
	// Regression: a second Flags.Start in one process must not panic and
	// must serve the same debug handler set; the error path of
	// http.Serve is logged rather than silently discarded (not assertable
	// here, but the serve goroutine no longer ignores it).
	var a, b Flags
	a.DebugAddr = "127.0.0.1:0"
	b.DebugAddr = "127.0.0.1:0"
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Flags{&a, &b} {
		addr := f.boundAddr
		if addr == "" {
			t.Fatal("bound debug address empty after Start")
		}
		resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
		if err != nil {
			t.Fatalf("scrape %s: %v", addr, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics on %s = %d, want 200", addr, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("empty /metrics body from %s", addr)
		}
	}
}
