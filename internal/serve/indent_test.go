package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mpa/internal/obs"
)

// encoderIndent is the reference writeJSON must reproduce byte for
// byte: json.Encoder with SetIndent("", "  "), trailing newline
// included.
func encoderIndent(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("Encoder: %v", err)
	}
	return buf.Bytes()
}

// FuzzIndentJSON checks writeJSON's body, json.Marshal's output run
// through appendIndent, against json.Encoder with SetIndent("", "  ").
// Each input is encoded as a string (any bytes: invalid UTF-8, escapes,
// U+2028, HTML characters) inside a small document, and, when it is
// valid JSON, as a document of its own, which Marshal compacts.
func FuzzIndentJSON(f *testing.F) {
	for _, seed := range []string{
		`"\\"`, `"\""`, `\`, `"`, "\u2028\u2029", `"\u2028"`, `<>&`, `"<a href='x'>&amp;</a>"`,
		"\xff\xfe\xc3", "{}", "[]", `{"a":{},"b":[],"c":[{},[]]}`,
		`[1,-2.5e-3,true,false,null,"x\\\"y",{"k":"v"}]`,
		`{ "spaced" : [ 1 , 2 ] , "nested" : { "deep" : [ [ [ ] ] ] } }`,
		strings.Repeat(`{"a":[`, 40) + "0" + strings.Repeat("]}", 40),
		strings.Repeat("[", 200) + strings.Repeat("]", 200),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := string(data)
		vs := []any{s, map[string]any{s: []any{s, 1.5, map[string]any{}}, "": []any{}}}
		if json.Valid(data) {
			vs = append(vs, json.RawMessage(data))
		}
		for _, v := range vs {
			w := httptest.NewRecorder()
			writeJSON(w, http.StatusOK, v)
			if got, want := w.Body.Bytes(), encoderIndent(t, v); w.Code != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("writeJSON (status %d) differs from Encoder for %q:\ngot:\n%s\nwant:\n%s", w.Code, data, got, want)
			}
		}
	})
}

// TestWriteJSONEncodeFailure: a value json cannot encode answers a 500
// with a JSON error body, counted as a 5xx, instead of a 200 with an
// empty body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	for _, v := range []any{math.NaN(), map[string]float64{"p": math.Inf(-1)}} {
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusOK, v)
		if w.Code != http.StatusInternalServerError {
			t.Errorf("%v: status = %d, want 500", v, w.Code)
		}
		var body errorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Errorf("%v: body %q is not a JSON error (%v)", v, w.Body.Bytes(), err)
		}
	}

	s := bareServer(obs.NewRecorder())
	h := s.query("nan_body", func(_ *shard, w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, struct{ X float64 }{math.NaN()})
	})
	fiveXX := s.ep["nan_body"].status[3]
	before := fiveXX.Value()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/nan_body", nil))
	if got := fiveXX.Value() - before; got != 1 {
		t.Errorf("serve.status.nan_body.5xx grew by %d, want 1", got)
	}
}
