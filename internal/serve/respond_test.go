package serve

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"mpa"
	"mpa/internal/obs"
)

// TestStoredEncodeFailureNotStored: an answer json cannot encode (a NaN)
// answers a counted 500 JSON error, like writeJSON, and is not stored:
// the next read builds again and stores what it builds.
func TestStoredEncodeFailureNotStored(t *testing.T) {
	cfg := mpa.SmallConfig(3)
	cfg.Networks = 3
	f, err := mpa.NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := bareServer(obs.NewRecorder())
	builds := 0
	h := s.query("nan_answer", func(_ *shard, w http.ResponseWriter, r *http.Request) {
		respond(w, r, f, "answer", "", "body/nan_answer", nil, nil, func(*mpa.Framework) (any, error) {
			builds++
			if builds == 1 {
				return struct{ X float64 }{math.NaN()}, nil
			}
			return struct{ X float64 }{1}, nil
		})
	})
	fiveXX := s.ep["nan_answer"].status[3]
	before := fiveXX.Value()
	for i, want := range []int{http.StatusInternalServerError, http.StatusOK, http.StatusOK} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/nan_answer", nil))
		if w.Code != want {
			t.Fatalf("read %d: status %d (%s), want %d", i, w.Code, w.Body.Bytes(), want)
		}
		if i == 0 && w.Body.String() != "{\n  \"error\": \"encode response: json: unsupported value: NaN\"\n}\n" {
			t.Errorf("failed read's body %q, want writeJSON's encode error", w.Body.Bytes())
		}
	}
	if builds != 2 {
		t.Errorf("%d builds, want 2: the failed one and the one stored after it", builds)
	}
	if d := fiveXX.Value() - before; d != 1 {
		t.Errorf("serve.status.nan_answer.5xx grew by %d, want 1", d)
	}
}
