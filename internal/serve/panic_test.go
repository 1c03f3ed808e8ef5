package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mpa/internal/obs"
)

// bareServer builds the request plumbing with one framework-less default
// shard: query and the test handlers never touch the framework, so the
// tests skip a full pipeline build.
func bareServer(rec *obs.Recorder) *Server {
	s := newServer(Config{Recorder: rec})
	s.def = &shard{name: "bare"}
	return s
}

// TestQueryPanicRecovered pins the regression where a panicking handler
// skipped sp.End() and every counter: the wrapper must recover, return a
// 500 JSON error, bump serve.panics and serve.errors, still observe
// latency, and record the request in the flight recorder as errored.
func TestQueryPanicRecovered(t *testing.T) {
	rec := obs.NewRecorder()
	s := bareServer(rec)

	panicsBefore := s.panics.Value()
	errorsBefore := s.errors.Value()
	requestsBefore := s.requests.Value()

	h := s.query("boom", func(*shard, http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/boom", nil))

	if w.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", w.Code)
	}
	id := w.Header().Get("X-Request-ID")
	if id == "" {
		t.Error("panic response lost the X-Request-ID header")
	}
	var body errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("panic response body is not JSON: %v (%s)", err, w.Body.Bytes())
	}
	if !strings.Contains(body.Error, id) {
		t.Errorf("error body %q does not reference request id %s", body.Error, id)
	}

	if got := s.panics.Value() - panicsBefore; got != 1 {
		t.Errorf("serve.panics grew by %d, want 1", got)
	}
	if got := s.errors.Value() - errorsBefore; got != 1 {
		t.Errorf("serve.errors grew by %d, want 1", got)
	}
	if got := s.requests.Value() - requestsBefore; got != 1 {
		t.Errorf("serve.requests grew by %d, want 1", got)
	}

	sum, ok := rec.Get(id)
	if !ok {
		t.Fatal("panicked request missing from the flight recorder")
	}
	if !sum.Err || sum.Status != http.StatusInternalServerError {
		t.Errorf("recorder entry = %+v, want Err with status 500", sum)
	}
	if rec.Tree(id) == nil {
		t.Error("errored request's span tree not retained")
	}
}

// TestQueryPanicAfterWrite: when the handler panics after the response
// has started, headers cannot be rewritten — the wrapper must not write
// a second body, but the failure must still be counted and recorded as
// a 500 internally.
func TestQueryPanicAfterWrite(t *testing.T) {
	rec := obs.NewRecorder()
	s := bareServer(rec)

	h := s.query("halfway", func(_ *shard, w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write([]byte(`{"partial":`)); err != nil {
			t.Errorf("write: %v", err)
		}
		panic("mid-body failure")
	})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/halfway", nil))

	if w.Code != http.StatusOK {
		t.Errorf("status = %d; headers were already sent, must stay 200", w.Code)
	}
	if got := w.Body.String(); got != `{"partial":` {
		t.Errorf("body = %q, want only the pre-panic bytes", got)
	}
	id := w.Header().Get("X-Request-ID")
	sum, ok := rec.Get(id)
	if !ok {
		t.Fatal("request missing from recorder")
	}
	if !sum.Err || sum.Status != http.StatusInternalServerError {
		t.Errorf("recorder entry = %+v, want internal status 500 despite 200 on the wire", sum)
	}
}

// TestQueryRequestIDPropagation: a client-supplied X-Request-ID echoes
// back and keys the recorder entry; a traceparent supplies the trace-id.
func TestQueryRequestIDPropagation(t *testing.T) {
	rec := obs.NewRecorder()
	s := bareServer(rec)
	h := s.query("ok", func(_ *shard, w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"ok": "true"})
	})

	req := httptest.NewRequest("GET", "/v1/ok", nil)
	req.Header.Set("X-Request-ID", "client-chosen-7")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if got := w.Header().Get("X-Request-ID"); got != "client-chosen-7" {
		t.Errorf("X-Request-ID = %q, want round-tripped client id", got)
	}
	if _, ok := rec.Get("client-chosen-7"); !ok {
		t.Error("recorder entry not keyed by client id")
	}

	req = httptest.NewRequest("GET", "/v1/ok", nil)
	req.Header.Set("traceparent", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if got := w.Header().Get("X-Request-ID"); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("X-Request-ID = %q, want the traceparent trace-id", got)
	}
}
