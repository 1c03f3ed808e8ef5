package serve_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"mpa"
	"mpa/internal/ingest"
	"mpa/internal/obs"
	"mpa/internal/osp"
	"mpa/internal/serve"
)

// wantTag is the strong ETag a stored body carries: the first 128 bits
// of the SHA-256 of its bytes, in hex and quoted.
func wantTag(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// conditional performs one GET, with If-None-Match when inm is set, and
// returns the status, body and ETag.
func conditional(t testing.TB, s *serve.Server, path, inm string) (int, []byte, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w.Code, w.Body.Bytes(), w.Header().Get("ETag")
}

// TestStoredBodyETags: every stored /v1 answer carries the hash of its
// bytes as a strong ETag; If-None-Match with a current tag answers a
// counted 304 with no body. After an ingest, a touched network whose
// answer changed answers 200 with a new tag, while an untouched one, and
// a touched one whose bytes came out the same, keep theirs.
func TestStoredBodyETags(t *testing.T) {
	p := osp.Small(6)
	p.Networks = 10
	p.End = p.Start.Add(2)
	o := osp.Generate(p)
	f, err := mpa.NewCached(o.Inventory, o.Archive, o.Tickets, p.Start, p.End, mpa.CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := oneOrgServer(t, f, serve.Config{})
	m := p.End
	nets := o.Inventory.Networks
	snapNet, ticketNet, quietNet := nets[0].Name, nets[len(nets)-1].Name, nets[1].Name
	network := func(n string) string { return "/v1/network?network=" + n + "&month=" + m.String() }

	paths := map[string]string{
		"rank":    "/v1/rank",
		"causal":  "/v1/causal?practice=" + f.RankPractices()[0].Metric,
		"predict": "/v1/predict?network=" + quietNet + "&month=" + m.String(),
		"network": network(quietNet),
		"report":  "/v1/report/table3",
	}
	for ep, path := range paths {
		code, body, tag := conditional(t, s, path, "")
		if code != http.StatusOK || tag != wantTag(body) {
			t.Fatalf("%s: status %d, ETag %s, want 200 with %s", path, code, tag, wantTag(body))
		}
		notModified := obs.GetCounter("serve.status." + ep + ".3xx")
		before := notModified.Value()
		for _, inm := range []string{tag, `"other", W/` + tag, "*"} {
			code, got, again := conditional(t, s, path, inm)
			if code != http.StatusNotModified || len(got) != 0 || again != tag {
				t.Errorf("%s If-None-Match %s: status %d, %d body bytes, ETag %s; want 304, none, %s",
					path, inm, code, len(got), again, tag)
			}
		}
		if d := notModified.Value() - before; d != 3 {
			t.Errorf("serve.status.%s.3xx grew by %d, want 3", ep, d)
		}
		if code, got, again := conditional(t, s, path, `"stale"`); code != http.StatusOK || !bytes.Equal(got, body) || again != tag {
			t.Errorf("%s with a stale tag: status %d, ETag %s; want 200 with the same body and tag", path, code, again)
		}
	}

	tags := map[string]string{}
	for _, n := range []string{snapNet, ticketNet, quietNet} {
		_, _, tags[n] = conditional(t, s, network(n), "")
	}
	// An intra-month update touching two networks: a re-sent final config
	// (the analysis is unchanged, the memo still invalidated) and a ticket.
	dev := nets[0].Devices[0].Name
	hist := o.Archive.Snapshots(dev)
	u := &ingest.Update{
		Month:     m.String(),
		Snapshots: []ingest.SnapshotEntry{{Device: dev, Time: m.End().Add(-1), Login: "ops", Text: hist[len(hist)-1].Text}},
		Tickets:   []ingest.TicketEntry{{Network: ticketNet, Origin: "user-report", Opened: m.End().Add(-1)}},
	}
	ub, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	res := postIngest(t, s, ub)
	wantStatus(t, res, "/v1/ingest", http.StatusOK)
	var ir ingestResponse
	if err := json.NewDecoder(res.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ir.Networks) != fmt.Sprint([]string{snapNet, ticketNet}) {
		t.Fatalf("touched networks %v, want [%s %s]", ir.Networks, snapNet, ticketNet)
	}

	code, body, tag := conditional(t, s, network(ticketNet), tags[ticketNet])
	if code != http.StatusOK || tag == tags[ticketNet] || tag != wantTag(body) {
		t.Errorf("touched %s after a new ticket: status %d, ETag %s (was %s); want 200 with the new body's tag",
			ticketNet, code, tag, tags[ticketNet])
	}
	for _, n := range []string{quietNet, snapNet} {
		if code, _, tag := conditional(t, s, network(n), tags[n]); code != http.StatusNotModified || tag != tags[n] {
			t.Errorf("%s after the ingest: status %d, ETag %s; want 304 keeping %s", n, code, tag, tags[n])
		}
	}
}

// TestStoredBodiesRaceIngests races month ingests against /v1 reads:
// every 200 body must carry the hash of its own bytes as its tag, and a
// read that names the current tag must get a 304. A body stored from one
// snapshot and tagged from another, or a tag left over from an earlier
// snapshot, fails it. Run under -race it also covers the memo's single
// flight for bodies.
func TestStoredBodiesRaceIngests(t *testing.T) {
	p := osp.Small(7)
	p.Networks = 6
	p.End = p.Start.Add(3)
	o := osp.Generate(p)
	cut := p.Start.Add(1)
	arch, log := ingest.Truncate(o.Archive, o.Tickets, cut)
	f, err := mpa.NewCached(o.Inventory, arch, log, p.Start, cut, mpa.CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := oneOrgServer(t, f, serve.Config{})
	paths := []string{"/v1/rank", "/v1/report/table3", "/v1/causal?practice=no_change_events"}
	for _, n := range f.Dataset().Networks()[:3] {
		paths = append(paths, "/v1/network?network="+n, "/v1/predict?network="+n)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := map[string]string{}
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[i%len(paths)]
				code, body, tag := conditional(t, s, path, seen[path])
				switch {
				case code == http.StatusNotModified && len(body) == 0 && tag == seen[path]:
				case code == http.StatusOK && tag == wantTag(body) && tag != seen[path]:
					seen[path] = tag
				default:
					errs <- fmt.Errorf("%s (If-None-Match %s): status %d, ETag %s, body hash %s",
						path, seen[path], code, tag, wantTag(body))
					return
				}
			}
		}(g)
	}
	for m := cut.Next(); !p.End.Before(m); m = m.Next() {
		ub, err := json.Marshal(ingest.SliceMonth(o.Archive, o.Tickets, m))
		if err != nil {
			t.Fatal(err)
		}
		wantStatus(t, postIngest(t, s, ub), "/v1/ingest "+m.String(), http.StatusOK)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
