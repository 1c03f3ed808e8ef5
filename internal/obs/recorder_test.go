package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// recSpan builds an ended root span with a fixed duration, bypassing
// the clock.
func recSpan(name string, durMicro int64, children ...*Span) *Span {
	return fixedSpan(name, 1_000_000, durMicro, 0, nil, children...)
}

func TestRecorderRingBoundedNewestFirst(t *testing.T) {
	r := NewRecorder(RecorderConfig{Ring: 4})
	for i := 0; i < 7; i++ {
		r.Record(recSpan("q", 100), RequestMeta{ID: fmt.Sprintf("id-%d", i)})
	}
	if r.Count() != 7 {
		t.Errorf("Count = %d, want 7", r.Count())
	}
	sums := r.Summaries()
	if len(sums) != 4 {
		t.Fatalf("ring holds %d, want 4", len(sums))
	}
	for i, want := range []string{"id-6", "id-5", "id-4", "id-3"} {
		if sums[i].ID != want {
			t.Errorf("summary %d = %s, want %s (newest first)", i, sums[i].ID, want)
		}
	}
	if _, ok := r.Get("id-0"); ok {
		t.Error("evicted ring entry still retrievable")
	}
	if s, ok := r.Get("id-6"); !ok || s.Name != "q" {
		t.Errorf("Get(id-6) = %+v, %v", s, ok)
	}
}

func TestRecorderRetainsSlowest(t *testing.T) {
	r := NewRecorder(RecorderConfig{Ring: 64, KeepSlowest: 2, KeepErrors: 1})
	durs := []int64{100, 900, 300, 50, 700}
	for i, d := range durs {
		r.Record(recSpan("q", d), RequestMeta{ID: fmt.Sprintf("id-%d", i)})
	}
	// The two slowest are id-1 (900µs) and id-4 (700µs).
	for _, id := range []string{"id-1", "id-4"} {
		if r.Tree(id) == nil {
			t.Errorf("tree for %s (among the 2 slowest) not retained", id)
		}
	}
	for _, id := range []string{"id-0", "id-2", "id-3"} {
		if r.Tree(id) != nil {
			t.Errorf("tree for %s retained, want evicted", id)
		}
	}
	// TraceRetained must reflect retention at read time.
	for _, s := range r.Summaries() {
		want := s.ID == "id-1" || s.ID == "id-4"
		if s.TraceRetained != want {
			t.Errorf("%s TraceRetained = %v, want %v", s.ID, s.TraceRetained, want)
		}
	}
}

func TestRecorderRetainsRecentErrors(t *testing.T) {
	r := NewRecorder(RecorderConfig{Ring: 64, KeepSlowest: 1, KeepErrors: 2})
	// A fast errored request must be retained even though it would never
	// make the slowest set.
	r.Record(recSpan("big", 10_000), RequestMeta{ID: "slowest"})
	r.Record(recSpan("e", 1), RequestMeta{ID: "err-0", Status: 500, Err: true})
	r.Record(recSpan("e", 1), RequestMeta{ID: "err-1", Status: 500, Err: true})
	if r.Tree("err-0") == nil || r.Tree("err-1") == nil {
		t.Fatal("errored trees not retained")
	}
	// A third error evicts the oldest (FIFO), not the slowest.
	r.Record(recSpan("e", 1), RequestMeta{ID: "err-2", Status: 404, Err: true})
	if r.Tree("err-0") != nil {
		t.Error("oldest error tree not evicted at KeepErrors=2")
	}
	if r.Tree("err-1") == nil || r.Tree("err-2") == nil {
		t.Error("recent error trees evicted prematurely")
	}
	if r.Tree("slowest") == nil {
		t.Error("slowest tree evicted by error retention")
	}
}

func TestRecorderStageBreakdownMergedSorted(t *testing.T) {
	root := recSpan("req", 1000,
		fixedSpan("parse", 1_000_010, 50, 10, nil),
		fixedSpan("analyze", 1_000_100, 600, 20, nil),
		fixedSpan("parse", 1_000_800, 70, 5, nil),
	)
	r := NewRecorder(RecorderConfig{})
	sum := r.Record(root, RequestMeta{ID: "x"})
	if len(sum.Stages) != 2 {
		t.Fatalf("stages = %+v, want parse+analyze merged", sum.Stages)
	}
	if sum.Stages[0].Name != "analyze" || sum.Stages[0].Calls != 1 {
		t.Errorf("stage 0 = %+v, want analyze first (longest)", sum.Stages[0])
	}
	if sum.Stages[1].Name != "parse" || sum.Stages[1].Calls != 2 ||
		sum.Stages[1].Duration != 120*time.Microsecond ||
		sum.Stages[1].AllocBytes != 15 {
		t.Errorf("parse rows not merged: %+v", sum.Stages[1])
	}
}

func TestRecorderSlowestOrder(t *testing.T) {
	r := NewRecorder(RecorderConfig{})
	r.Record(recSpan("a", 100), RequestMeta{ID: "a"})
	r.Record(recSpan("b", 500), RequestMeta{ID: "b"})
	r.Record(recSpan("c", 300), RequestMeta{ID: "c"})
	top := r.Slowest(2)
	if len(top) != 2 || top[0].ID != "b" || top[1].ID != "c" {
		t.Errorf("Slowest(2) = %+v, want b then c", top)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(recSpan("x", 1), RequestMeta{})
	if r.Summaries() != nil || r.Tree("x") != nil || r.Count() != 0 || r.Logs() != nil {
		t.Error("nil recorder not inert")
	}
	live := NewRecorder(RecorderConfig{})
	if got := live.Record(nil, RequestMeta{ID: "n"}); got.ID != "" || live.Count() != 0 {
		t.Error("nil span recorded")
	}
}

func TestLogHandlerTee(t *testing.T) {
	r := NewRecorder(RecorderConfig{LogRing: 2})
	var sink strings.Builder
	// The inner handler only passes Error, proving Warn is captured by
	// the tee even when the destination drops it.
	inner := slog.NewTextHandler(&sink, &slog.HandlerOptions{Level: slog.LevelError})
	lg := slog.New(r.LogHandler(inner)).With("component", "test")
	lg.Info("quiet", "k", "v")
	lg.Warn("first warn", "req", "abc")
	lg.Error("boom", "err", io.ErrUnexpectedEOF)
	lg.Warn("second warn")

	logs := r.Logs()
	if len(logs) != 2 {
		t.Fatalf("log ring holds %d, want 2 (bounded, Warn+ only)", len(logs))
	}
	if logs[0].Msg != "second warn" || logs[1].Msg != "boom" {
		t.Errorf("logs = %+v, want newest first", logs)
	}
	if logs[1].Level != "ERROR" || logs[1].Attrs["err"] != io.ErrUnexpectedEOF.Error() {
		t.Errorf("error record = %+v", logs[1])
	}
	if logs[0].Attrs["component"] != "test" {
		t.Errorf("pre-bound attrs lost: %+v", logs[0].Attrs)
	}
	if !strings.Contains(sink.String(), "boom") || strings.Contains(sink.String(), "first warn") {
		t.Errorf("inner handler gating not respected: %q", sink.String())
	}
}

func TestDefaultLoggerFeedsDefaultRecorder(t *testing.T) {
	before := len(DefaultRecorder().Logs())
	Logger().Warn("recorder_test: default tee", "marker", "xyzzy")
	logs := DefaultRecorder().Logs()
	if len(logs) <= before {
		t.Fatal("default logger Warn did not reach the default recorder")
	}
	if logs[0].Attrs["marker"] != "xyzzy" {
		t.Errorf("captured record = %+v", logs[0])
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Error("request IDs not unique")
	}
	if len(a) != 16 {
		t.Errorf("id %q, want 16 hex chars", a)
	}
}

func TestRequestIDFrom(t *testing.T) {
	tp := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if got := RequestIDFrom(tp, "client-42"); got != "client-42" {
		t.Errorf("explicit X-Request-ID lost: %q", got)
	}
	if got := RequestIDFrom(tp, ""); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("traceparent trace-id = %q", got)
	}
	// Header injection characters are stripped, not echoed.
	if got := RequestIDFrom("", "abc\r\nSet-Cookie: x"); got != "abcSet-Cookiex" {
		t.Errorf("sanitized id = %q", got)
	}
	if got := RequestIDFrom("garbage", "\r\n"); len(got) != 16 {
		t.Errorf("fallback id = %q, want generated", got)
	}
	for _, bad := range []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace-id
		"00-zzf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // not hex
	} {
		if id, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) accepted → %q", bad, id)
		}
	}
}

func TestTreeOfMarksOpenSpans(t *testing.T) {
	root := NewRoot("req")
	child := root.Start("stage")
	child.End()
	open := root.Start("still-going")
	time.Sleep(time.Millisecond)
	node := TreeOf(root)
	if !node.Open {
		t.Error("unended root not marked open")
	}
	if len(node.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(node.Children))
	}
	for _, c := range node.Children {
		switch c.Name {
		case "stage":
			if c.Open {
				t.Error("ended child marked open")
			}
		case "still-going":
			if !c.Open || c.DurationNS <= 0 {
				t.Errorf("open child = %+v, want open with elapsed duration", c)
			}
		}
	}
	open.End()
}

func TestRecorderDebugEndpoints(t *testing.T) {
	r := NewRecorder(RecorderConfig{})
	mux := http.NewServeMux()
	RegisterRecorderDebug(mux, r)

	root := NewRoot("serve:rank")
	c := root.Start("rank_practices")
	c.End()
	root.End()
	r.Record(root, RequestMeta{ID: "req-1", Status: 200, Slow: true})
	slog.New(r.LogHandler(slog.NewTextHandler(io.Discard, nil))).Warn("slow request", "request_id", "req-1")

	get := func(path string) (*httptest.ResponseRecorder, []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec, rec.Body.Bytes()
	}

	rec, body := get("/debug/requests")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/requests = %d", rec.Code)
	}
	var list struct {
		Count    int              `json:"count"`
		Requests []RequestSummary `json:"requests"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || len(list.Requests) != 1 || list.Requests[0].ID != "req-1" || !list.Requests[0].Slow {
		t.Errorf("list = %+v", list)
	}

	rec, body = get("/debug/requests/req-1")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/requests/req-1 = %d (%s)", rec.Code, body)
	}
	var detail struct {
		Summary RequestSummary `json:"summary"`
		Tree    *SpanNode      `json:"tree"`
	}
	if err := json.Unmarshal(body, &detail); err != nil {
		t.Fatal(err)
	}
	if detail.Tree == nil || detail.Tree.Name != "serve:rank" ||
		len(detail.Tree.Children) != 1 || detail.Tree.Children[0].Name != "rank_practices" {
		t.Errorf("detail tree = %+v", detail.Tree)
	}

	rec, body = get("/debug/requests/req-1/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("trace = %d", rec.Code)
	}
	if cd := rec.Header().Get("Content-Disposition"); !strings.Contains(cd, "trace-req-1.json") {
		t.Errorf("Content-Disposition = %q", cd)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &tf); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) != 2 {
		t.Errorf("trace events = %d, want 2", len(tf.TraceEvents))
	}

	rec, _ = get("/debug/requests/no-such-id")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown id = %d, want 404", rec.Code)
	}
	rec, _ = get("/debug/requests/no-such-id/trace")
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown trace = %d, want 404", rec.Code)
	}

	rec, body = get("/debug/logs")
	if rec.Code != http.StatusOK || !strings.Contains(string(body), "slow request") {
		t.Errorf("/debug/logs = %d %s", rec.Code, body)
	}
}

func TestRecorderSnapshot(t *testing.T) {
	r := NewRecorder(RecorderConfig{KeepSlowest: 1})
	r.Record(recSpan("fast", 10), RequestMeta{ID: "fast"})
	r.Record(recSpan("slow", 100), RequestMeta{ID: "slow"})
	slog.New(r.LogHandler(slog.NewTextHandler(io.Discard, nil))).Warn("note")
	snap := r.Snapshot()
	if len(snap.Requests) != 2 || snap.Requests[0].ID != "slow" {
		t.Errorf("snapshot requests = %+v", snap.Requests)
	}
	if len(snap.RetainedTraces) != 1 || snap.RetainedTraces[0] != "slow" {
		t.Errorf("retained traces = %v, want [slow]", snap.RetainedTraces)
	}
	if len(snap.Logs) != 1 || snap.Logs[0].Msg != "note" {
		t.Errorf("snapshot logs = %+v", snap.Logs)
	}
}
