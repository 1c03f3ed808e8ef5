package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpa"
	"mpa/internal/serve"
	"mpa/internal/tenant"
)

// daemon is one in-process `mpa serve` over an org registry, listening on
// a loopback port.
type daemon struct {
	srv    *serve.Server
	orgs   []*tenant.Org
	base   string
	cancel context.CancelFunc
	done   chan error
}

// startDaemon builds one framework per org with mpa.NewCached (content
// cache in memory, plus a disk tier under cacheDir when set), fronts them
// with serve.NewSharded, and listens. The returned duration covers exactly
// that — from substrates in memory to a daemon accepting connections.
func startDaemon(orgs []*org, cacheDir string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	list := make([]*tenant.Org, 0, len(orgs))
	for _, g := range orgs {
		cc := mpa.CacheConfig{Enabled: true}
		if cacheDir != "" {
			cc.Dir = filepath.Join(cacheDir, "orgs", g.name)
		}
		f, err := mpa.NewCached(g.inv, g.arch, g.log, g.start, g.end, cc)
		if err != nil {
			return nil, 0, fmt.Errorf("build org %s: %w", g.name, err)
		}
		list = append(list, &tenant.Org{Name: g.name, F: f, Cfg: mpa.Config{
			Networks: len(g.inv.Networks), Start: g.start, End: g.end, Cache: cc,
		}})
	}
	reg, err := tenant.New(list)
	if err != nil {
		return nil, 0, err
	}
	srv := serve.NewSharded(reg, serve.Config{Addr: "127.0.0.1:0"})
	addr, err := srv.Listen()
	if err != nil {
		return nil, 0, err
	}
	setup := time.Since(t0)
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{srv: srv, orgs: list, base: "http://" + addr.String(), cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ctx) }()
	return d, setup, nil
}

// stop shuts the daemon down and waits for Serve to return.
func (d *daemon) stop() error {
	d.cancel()
	return <-d.done
}

func (d *daemon) frameworks() []*mpa.Framework {
	out := make([]*mpa.Framework, len(d.orgs))
	for i, o := range d.orgs {
		out[i] = o.F
	}
	return out
}

// conn is one client connection: a transport limited to a single TCP
// connection, so a workload's connection count is exactly its conn count.
type conn struct {
	tr   *http.Transport
	hc   *http.Client
	base string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, base: base}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// exec sends q on c, reads the whole body, and checks it. It returns the
// latency and the body; any transport error, non-2xx status or failed
// check is counted as a failed operation.
func (r *run) exec(c *conn, q *request, parent int) (time.Duration, []byte) {
	r.attempted.Add(1)
	var body io.Reader
	if q.body != nil {
		body = bytes.NewReader(q.body)
	}
	req, err := http.NewRequest(q.method, c.base+q.path, body)
	if err != nil {
		r.fail("%s %s: %v", q.method, q.path, err)
		return 0, nil
	}
	if q.org != "" {
		req.Header.Set(serve.OrgHeader, q.org)
	}
	sp := 0
	if r.tr != nil {
		id := r.tr.nextRequestID()
		req.Header.Set("X-Request-ID", id)
		sp = r.tr.begin("http."+q.ep, parent, id)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	var b []byte
	if err == nil {
		b, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(t0)
	r.tr.end(sp)
	switch {
	case err != nil:
		r.fail("%s %s: %v", q.method, q.path, err)
	case resp.StatusCode/100 != 2:
		r.fail("%s %s: status %d: %.120s", q.method, q.path, resp.StatusCode, b)
	default:
		if err := q.check(b); err != nil {
			r.fail("%s %s: %v", q.method, q.path, err)
		}
	}
	return lat, b
}

// parallel answers reqs over conns, each connection taking the next
// unanswered request as soon as it is free. It returns each request's
// latency and body, in reqs order.
func (r *run) parallel(conns []*conn, reqs []*request, parent int) ([]time.Duration, [][]byte) {
	lats := make([]time.Duration, len(reqs))
	bodies := make([][]byte, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				lats[i], bodies[i] = r.exec(c, reqs[i], parent)
			}
		}(c)
	}
	wg.Wait()
	return lats, bodies
}

// step is one month arriving at a daemon: the ingest latency, the time
// from the POST being sent to the last refresh answer, and the refresh
// part alone (from the POST's reply to the last answer).
type step struct {
	ingest, refresh, refreshOnly time.Duration
	refreshLats                  []time.Duration
	refreshBodies                [][]byte
}

// monthStep POSTs one update on a, running side on b until the POST
// returns (when side is set), then answers the refresh set over refresh
// conns. It starts from a collected heap.
func (r *run) monthStep(a, b *conn, post *request, refresh []*request, conns []*conn, side func(*conn, <-chan struct{})) step {
	runtime.GC()
	parent := r.tr.begin("month_step", 0, "")
	defer r.tr.end(parent)
	t0 := time.Now()
	done := make(chan struct{})
	var wg sync.WaitGroup
	if side != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			side(b, done)
		}()
	}
	ing, _ := r.exec(a, post, parent)
	close(done)
	wg.Wait()
	t1 := time.Now()
	lats, bodies := r.parallel(conns, refresh, parent)
	return step{ingest: ing, refresh: time.Since(t0), refreshOnly: time.Since(t1), refreshLats: lats, refreshBodies: bodies}
}

// pin makes every later answer to reqs repeat these bodies byte for byte.
func pin(reqs []*request, bodies [][]byte) {
	for i, q := range reqs {
		q.check = equalTo(bodies[i])
	}
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
