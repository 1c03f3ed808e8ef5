package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpa"
	"mpa/internal/ingest"
	"mpa/internal/osp"
	"mpa/internal/serve"
	"mpa/internal/ticketing"
)

// ingestFixture builds a fresh framework over the first two months of a
// three-month organization plus the wire update carrying the third —
// fresh per test because ingest mutates the framework, unlike the
// package's shared read-only one.
func ingestFixture(t *testing.T) (*mpa.Framework, *ingest.Update, *osp.OSP) {
	t.Helper()
	p := osp.Small(6)
	p.Networks = 10
	p.End = p.Start.Add(2)
	o := osp.Generate(p)
	cut := p.Start.Add(1)
	arch, log := ingest.Truncate(o.Archive, o.Tickets, cut)
	f, err := mpa.NewCached(o.Inventory, arch, log, p.Start, cut, mpa.CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return f, ingest.SliceMonth(o.Archive, o.Tickets, p.End), o
}

// ingestResponse mirrors the POST /v1/ingest body.
type ingestResponse struct {
	Month     string   `json:"month"`
	NewMonth  bool     `json:"new_month"`
	WindowEnd string   `json:"window_end"`
	Networks  []string `json:"networks"`
	Snapshots int      `json:"snapshots"`
	Tickets   int      `json:"tickets"`
}

func postIngest(t *testing.T, s *serve.Server, body []byte) *http.Response {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Result()
}

func TestIngestEndpoint(t *testing.T) {
	f, u, o := ingestFixture(t)
	s := oneOrgServer(t, f, serve.Config{})
	newMonth := o.Params.End

	var before struct {
		Months    int    `json:"months"`
		WindowEnd string `json:"window_end"`
	}
	get(t, s, "/healthz", &before)
	if before.Months != 2 {
		t.Fatalf("fixture window = %d months, want 2", before.Months)
	}

	body, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	res := postIngest(t, s, body)
	wantStatus(t, res, "/v1/ingest", http.StatusOK)
	var ir ingestResponse
	if err := json.NewDecoder(res.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if !ir.NewMonth || ir.Month != newMonth.String() || ir.WindowEnd != newMonth.String() {
		t.Fatalf("ingest response %+v, want window extension to %s", ir, newMonth)
	}
	if ir.Snapshots != len(u.Snapshots) || ir.Tickets != len(u.Tickets) {
		t.Fatalf("ingest response counts %d/%d, want %d/%d",
			ir.Snapshots, ir.Tickets, len(u.Snapshots), len(u.Tickets))
	}

	// The new month is immediately queryable, no restart.
	var after struct {
		Months    int    `json:"months"`
		WindowEnd string `json:"window_end"`
	}
	get(t, s, "/healthz", &after)
	if after.Months != 3 || after.WindowEnd != newMonth.String() {
		t.Fatalf("healthz after ingest: %+v, want 3 months ending %s", after, newMonth)
	}
	if len(ir.Networks) == 0 {
		t.Fatal("ingest touched no networks")
	}
	var nh struct {
		Network string `json:"network"`
		Month   string `json:"month"`
	}
	path := fmt.Sprintf("/v1/network?network=%s&month=%s", ir.Networks[0], newMonth)
	wantStatus(t, get(t, s, path, &nh), path, http.StatusOK)
	if nh.Month != newMonth.String() || nh.Network != ir.Networks[0] {
		t.Fatalf("network query after ingest: %+v", nh)
	}
	rres := get(t, s, "/v1/rank", nil)
	wantStatus(t, rres, "/v1/rank", http.StatusOK)
}

func TestIngestEndpointRejects(t *testing.T) {
	f, u, o := ingestFixture(t)
	s := oneOrgServer(t, f, serve.Config{})

	valid, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		[]byte(`{nope`), // malformed JSON
		[]byte(`{"month":"2014-03","snapshotz":[]}`), // unknown field
		// A valid update followed by a second one, or by garbage: the
		// trailing data is rejected, not silently dropped.
		append(append([]byte{}, valid...), `{"month":"2014-08","tickets":[]}`...),
		append(append([]byte{}, valid...), ` garbage`...),
	}
	if b, err := json.Marshal(ingest.Update{Month: o.Params.End.Add(2).String(),
		Snapshots: u.Snapshots[:0], Tickets: nil}); err == nil {
		bad = append(bad, b) // empty update for a month past the window
	}
	for i, body := range bad {
		res := postIngest(t, s, body)
		if res.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %d: status %d, want 400", i, res.StatusCode)
		}
	}
	// Nothing was applied.
	var h struct {
		Months int `json:"months"`
	}
	get(t, s, "/healthz", &h)
	if h.Months != 2 {
		t.Fatalf("window grew to %d months after rejected updates", h.Months)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	Type string
	Data string
}

// readSSE consumes the stream until n events arrive (comments and
// heartbeats skipped), or the deadline passes.
func readSSE(t *testing.T, body *bufio.Scanner, n int, deadline time.Time) []sseEvent {
	t.Helper()
	var evs []sseEvent
	cur := sseEvent{}
	for len(evs) < n && time.Now().Before(deadline) {
		if !body.Scan() {
			t.Fatalf("stream closed after %d events (want %d): %v", len(evs), n, body.Err())
		}
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.Type != "":
			evs = append(evs, cur)
			cur = sseEvent{}
		}
	}
	return evs
}

// TestIngestStream subscribes over real HTTP, applies an update, and
// asserts the exact event sequence: one delta per touched network, in
// the response's (sorted) network order, then one rank event.
func TestIngestStream(t *testing.T) {
	f, u, _ := ingestFixture(t)
	s := oneOrgServer(t, f, serve.Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	res, err := http.Get(srv.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	// The server opens with a comment line; seeing it means the
	// subscription is registered and events cannot be missed.
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), ":") {
			break
		}
	}

	body, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	post, err := http.Post(srv.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ir ingestResponse
	if err := json.NewDecoder(post.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", post.StatusCode)
	}

	evs := readSSE(t, sc, len(ir.Networks)+1, time.Now().Add(30*time.Second))
	if len(evs) != len(ir.Networks)+1 {
		t.Fatalf("got %d events, want %d deltas + 1 rank", len(evs), len(ir.Networks))
	}
	for i, want := range ir.Networks {
		ev := evs[i]
		if ev.Type != "delta" {
			t.Fatalf("event %d: type %q, want delta", i, ev.Type)
		}
		var nh struct {
			Network string `json:"network"`
			Month   string `json:"month"`
			Tickets int    `json:"tickets"`
		}
		if err := json.Unmarshal([]byte(ev.Data), &nh); err != nil {
			t.Fatalf("event %d: bad JSON %q: %v", i, ev.Data, err)
		}
		if nh.Network != want || nh.Month != ir.Month {
			t.Fatalf("event %d: delta for %s/%s, want %s/%s", i, nh.Network, nh.Month, want, ir.Month)
		}
		// Deltas carry the post-ingest truth: the served count comes from the
		// dataset, the oracle from the raw ticket log.
		if got := f.State().Tickets.HealthCounts()[ticketing.NetworkMonth{Network: nh.Network, Month: f.Window()[len(f.Window())-1]}]; got != nh.Tickets {
			t.Fatalf("event %d: delta tickets %d, want %d", i, nh.Tickets, got)
		}
	}
	last := evs[len(evs)-1]
	if last.Type != "rank" {
		t.Fatalf("final event type %q, want rank", last.Type)
	}
	var rank struct {
		Month string            `json:"month"`
		Rank  []json.RawMessage `json:"rank"`
	}
	if err := json.Unmarshal([]byte(last.Data), &rank); err != nil {
		t.Fatalf("rank event: %v", err)
	}
	if rank.Month != ir.Month || len(rank.Rank) == 0 {
		t.Fatalf("rank event %q: month %s with %d entries", last.Data[:min(len(last.Data), 80)], rank.Month, len(rank.Rank))
	}
}

// TestIngestMidQueryConsistency hammers read endpoints while an ingest
// applies: every response must be complete and valid — served from
// either the old or the new environment, never a torn mix. Run under
// -race this also proves the swap is data-race-free.
func TestIngestMidQueryConsistency(t *testing.T) {
	f, u, o := ingestFixture(t)
	s := oneOrgServer(t, f, serve.Config{})
	oldEnd := o.Params.Start.Add(1).String()
	newEnd := o.Params.End.String()

	body, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 25; i++ {
				req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				var h struct {
					WindowEnd string `json:"window_end"`
				}
				if err := json.NewDecoder(rec.Result().Body).Decode(&h); err != nil {
					errs <- fmt.Errorf("healthz decode: %w", err)
					return
				}
				if h.WindowEnd != oldEnd && h.WindowEnd != newEnd {
					errs <- fmt.Errorf("healthz window_end %q, want %q or %q", h.WindowEnd, oldEnd, newEnd)
					return
				}
				req = httptest.NewRequest(http.MethodGet, "/v1/rank", nil)
				rec = httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				if code := rec.Result().StatusCode; code != http.StatusOK {
					errs <- fmt.Errorf("rank status %d mid-ingest", code)
					return
				}
			}
		}()
	}
	close(start)
	res := postIngest(t, s, body)
	wantStatus(t, res, "/v1/ingest", http.StatusOK)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the dust settles every reader sees the new window.
	var h struct {
		WindowEnd string `json:"window_end"`
	}
	get(t, s, "/healthz", &h)
	if h.WindowEnd != newEnd {
		t.Fatalf("window_end %q after ingest, want %q", h.WindowEnd, newEnd)
	}
}
