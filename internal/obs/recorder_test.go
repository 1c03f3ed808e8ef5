package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
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
	r := NewRecorder()
	const n = ringSize + 3
	for i := 0; i < n; i++ {
		r.Record(recSpan("q", 100), RequestMeta{ID: fmt.Sprintf("id-%d", i)})
	}
	if r.Count() != n {
		t.Errorf("Count = %d, want %d", r.Count(), n)
	}
	sums := r.Summaries()
	if len(sums) != ringSize {
		t.Fatalf("ring holds %d, want %d", len(sums), ringSize)
	}
	for i := range sums {
		if want := fmt.Sprintf("id-%d", n-1-i); sums[i].ID != want {
			t.Fatalf("summary %d = %s, want %s (newest first)", i, sums[i].ID, want)
		}
	}
	for i := 0; i < n-ringSize; i++ {
		if _, ok := r.Get(fmt.Sprintf("id-%d", i)); ok {
			t.Errorf("evicted ring entry id-%d still retrievable", i)
		}
	}
	last := fmt.Sprintf("id-%d", n-1)
	if s, ok := r.Get(last); !ok || s.Name != "q" {
		t.Errorf("Get(%s) = %+v, %v", last, s, ok)
	}
}

func TestRecorderRetainsSlowest(t *testing.T) {
	r := NewRecorder()
	// Distinct durations in shuffled order (7 is coprime with n): entry
	// i takes rank (7i mod n), so the keepSlowest slowest are the ranks
	// at or above n-keepSlowest, wherever they arrive.
	const n = keepSlowest + 3
	slowest := map[string]bool{}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("id-%d", i)
		slowest[id] = (7*i)%n >= n-keepSlowest
		r.Record(recSpan("q", int64(100*(1+(7*i)%n))), RequestMeta{ID: id})
	}
	for id, want := range slowest {
		if got := r.Tree(id) != nil; got != want {
			t.Errorf("tree for %s retained = %v, want %v (among the %d slowest)", id, got, want, keepSlowest)
		}
	}
	// TraceRetained must reflect retention at read time.
	for _, s := range r.Summaries() {
		if s.TraceRetained != slowest[s.ID] {
			t.Errorf("%s TraceRetained = %v, want %v", s.ID, s.TraceRetained, slowest[s.ID])
		}
	}
}

// TestRecorderStagesKeepOwnSlowest: pipeline stages and requests hold
// separate slowest slots. Long start-up stages recorded first leave
// every request slot to requests, and a burst of slow requests evicts
// no stage tree.
func TestRecorderStagesKeepOwnSlowest(t *testing.T) {
	r := NewRecorder()
	stage := func(i int) string { return fmt.Sprintf("%s%03d-generate", stageIDPrefix, i) }
	for i := 0; i < keepSlowest; i++ {
		r.Record(recSpan("generate", int64(1_000_000+i)), RequestMeta{ID: stage(i)})
	}
	// Requests far faster than any stage are all retained...
	for i := 0; i < keepSlowest; i++ {
		r.Record(recSpan("q", int64(10+i)), RequestMeta{ID: fmt.Sprintf("req-%d", i)})
	}
	// ...and slower requests replace the fastest requests, not stages.
	for i := 0; i < keepSlowest; i++ {
		r.Record(recSpan("q", int64(2_000_000+i)), RequestMeta{ID: fmt.Sprintf("slow-%d", i)})
	}
	for i := 0; i < keepSlowest; i++ {
		if r.Tree(stage(i)) == nil {
			t.Errorf("stage tree %s evicted by requests", stage(i))
		}
		if r.Tree(fmt.Sprintf("slow-%d", i)) == nil {
			t.Errorf("request tree slow-%d not retained beside the stages", i)
		}
		if r.Tree(fmt.Sprintf("req-%d", i)) != nil {
			t.Errorf("request tree req-%d outlived slower requests", i)
		}
	}
	// A slower stage evicts the fastest stage, never a request.
	r.Record(recSpan("inference", 5_000_000), RequestMeta{ID: stage(keepSlowest)})
	if r.Tree(stage(keepSlowest)) == nil || r.Tree(stage(0)) != nil {
		t.Error("a slower stage did not replace the fastest stage")
	}
	for i := 0; i < keepSlowest; i++ {
		if r.Tree(fmt.Sprintf("slow-%d", i)) == nil {
			t.Errorf("a stage evicted request tree slow-%d", i)
		}
	}
}

func TestRecorderRetainsRecentErrors(t *testing.T) {
	r := NewRecorder()
	// Fill the slowest set first, so a fast errored request can be
	// retained only as a recent error.
	for i := 0; i < keepSlowest; i++ {
		r.Record(recSpan("big", int64(10_000+i)), RequestMeta{ID: fmt.Sprintf("slow-%d", i)})
	}
	for i := 0; i < keepErrors; i++ {
		r.Record(recSpan("e", 1), RequestMeta{ID: fmt.Sprintf("err-%d", i), Status: 500, Err: true})
	}
	for i := 0; i < keepErrors; i++ {
		if r.Tree(fmt.Sprintf("err-%d", i)) == nil {
			t.Fatalf("errored tree err-%d not retained", i)
		}
	}
	// One more error evicts the oldest (FIFO), not the slowest.
	r.Record(recSpan("e", 1), RequestMeta{ID: fmt.Sprintf("err-%d", keepErrors), Status: 404, Err: true})
	if r.Tree("err-0") != nil {
		t.Errorf("oldest error tree not evicted at keepErrors=%d", keepErrors)
	}
	for i := 1; i <= keepErrors; i++ {
		if r.Tree(fmt.Sprintf("err-%d", i)) == nil {
			t.Errorf("recent error tree err-%d evicted prematurely", i)
		}
	}
	for i := 0; i < keepSlowest; i++ {
		if r.Tree(fmt.Sprintf("slow-%d", i)) == nil {
			t.Errorf("slowest tree slow-%d evicted by error retention", i)
		}
	}
}

func TestRecorderStageBreakdownMergedSorted(t *testing.T) {
	root := recSpan("req", 1000,
		fixedSpan("parse", 1_000_010, 50, 10, nil),
		fixedSpan("analyze", 1_000_100, 600, 20, nil),
		fixedSpan("parse", 1_000_800, 70, 5, nil),
	)
	r := NewRecorder()
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
	r := NewRecorder()
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
	live := NewRecorder()
	if got := live.Record(nil, RequestMeta{ID: "n"}); got.ID != "" || live.Count() != 0 {
		t.Error("nil span recorded")
	}
}

func TestLogHandlerTee(t *testing.T) {
	r := NewRecorder()
	var sink strings.Builder
	// The inner handler only passes Error, proving Warn is captured by
	// the tee even when the destination drops it.
	inner := slog.NewTextHandler(&sink, &slog.HandlerOptions{Level: slog.LevelError})
	lg := slog.New(r.LogHandler(inner)).With("component", "test")
	lg.Info("quiet", "k", "v")
	lg.Warn("first warn", "req", "abc")
	for i := 0; i < logRingSize-2; i++ {
		lg.Warn("filler warn")
	}
	lg.Error("boom", "err", io.ErrUnexpectedEOF)
	lg.Warn("second warn")

	logs := r.Logs()
	if len(logs) != logRingSize {
		t.Fatalf("log ring holds %d, want %d (bounded, Warn+ only)", len(logs), logRingSize)
	}
	for _, l := range logs {
		if l.Msg == "first warn" {
			t.Error("oldest record not evicted from the full log ring")
		}
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
	r := NewRecorder()
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
	r := NewRecorder()
	var slow []string
	for i := 0; i < keepSlowest; i++ {
		r.Record(recSpan("fast", 10), RequestMeta{ID: fmt.Sprintf("fast-%d", i)})
	}
	for i := 0; i < keepSlowest; i++ {
		id := fmt.Sprintf("slow-%d", i)
		r.Record(recSpan("slow", 100), RequestMeta{ID: id})
		slow = append(slow, id)
	}
	slog.New(r.LogHandler(slog.NewTextHandler(io.Discard, nil))).Warn("note")
	snap := r.Snapshot()
	if len(snap.Requests) != 2*keepSlowest || snap.Requests[0].ID != slow[keepSlowest-1] {
		t.Errorf("snapshot requests = %+v", snap.Requests)
	}
	if !slices.Equal(snap.RetainedTraces, slow) {
		t.Errorf("retained traces = %v, want %v", snap.RetainedTraces, slow)
	}
	if len(snap.Logs) != 1 || snap.Logs[0].Msg != "note" {
		t.Errorf("snapshot logs = %+v", snap.Logs)
	}
}
