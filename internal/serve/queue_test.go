package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mpa/internal/obs"
)

// TestQueueWaitRecorded: with the only slot held, a second request
// waits for it, and the wait is part of the request: its recorder entry
// has a queue_wait stage at least as long as the slot was held after the
// wait began, and the entry's duration includes it.
func TestQueueWaitRecorded(t *testing.T) {
	rec := obs.NewRecorder()
	s := newServer(Config{Recorder: rec, MaxInFlight: 1})
	s.def = &shard{name: "bare"}
	entered, release := make(chan struct{}), make(chan struct{})
	hold := s.query("hold", func(*shard, http.ResponseWriter, *http.Request) {
		close(entered)
		<-release
	})
	quick := s.query("quick", func(_ *shard, w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, "ok")
	})

	go hold.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/hold", nil))
	<-entered
	done := make(chan *httptest.ResponseRecorder)
	go func() {
		w := httptest.NewRecorder()
		quick.ServeHTTP(w, httptest.NewRequest("GET", "/v1/quick", nil))
		done <- w
	}()
	time.Sleep(50 * time.Millisecond)
	released := time.Now()
	close(release)
	w := <-done

	id := w.Header().Get("X-Request-ID")
	sum, ok := rec.Get(id)
	if w.Code != http.StatusOK || !ok {
		t.Fatalf("queued request: status %d, recorded %v", w.Code, ok)
	}
	tree := rec.Tree(id)
	if tree == nil || len(tree.Children()) == 0 || tree.Children()[0].Name() != "queue_wait" {
		t.Fatalf("queued request's tree lacks a leading queue_wait span")
	}
	held := released.Sub(tree.Children()[0].StartTime())
	if held <= 0 {
		t.Fatalf("the queued request began waiting after the slot was released (%v)", held)
	}
	var wait time.Duration
	for _, st := range sum.Stages {
		if st.Name == "queue_wait" {
			wait = st.Duration
		}
	}
	if wait < held || time.Duration(sum.DurationNS) < wait {
		t.Errorf("queue_wait = %v, request = %v; want queue_wait >= the %v hold and within the request",
			wait, time.Duration(sum.DurationNS), held)
	}
}

// TestQueuedCancelNeverRuns: with the only slot held, a queued request
// whose client cancels returns at once without running its handler. It
// takes no slot, is counted in serve.queue_cancelled, and is recorded
// with status 499 and its queue_wait stage.
func TestQueuedCancelNeverRuns(t *testing.T) {
	rec := obs.NewRecorder()
	s := newServer(Config{Recorder: rec, MaxInFlight: 1})
	s.def = &shard{name: "bare"}
	entered, release := make(chan struct{}), make(chan struct{})
	hold := s.query("hold", func(*shard, http.ResponseWriter, *http.Request) {
		close(entered)
		<-release
	})
	var ran atomic.Bool
	queued := s.query("canceled", func(_ *shard, w http.ResponseWriter, _ *http.Request) {
		ran.Store(true)
		writeJSON(w, http.StatusOK, "ok")
	})

	held := make(chan struct{})
	go func() {
		hold.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/hold", nil))
		close(held)
	}()
	<-entered
	cancelled := obs.GetCounter("serve.queue_cancelled")
	before := cancelled.Value()
	ctx, cancel := context.WithCancel(context.Background())
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		queued.ServeHTTP(w, httptest.NewRequest("GET", "/v1/canceled", nil).WithContext(ctx))
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the canceled request is still queued")
	}
	if ran.Load() {
		t.Error("the canceled request ran its handler")
	}
	if d := cancelled.Value() - before; d != 1 {
		t.Errorf("serve.queue_cancelled grew by %d, want 1", d)
	}
	if n := len(s.sem); n != 1 {
		t.Errorf("%d slots taken after the cancel, want 1 (the held one)", n)
	}
	sum, ok := rec.Get(w.Header().Get("X-Request-ID"))
	if !ok || sum.Status != statusClientClosedRequest || w.Code != statusClientClosedRequest {
		t.Fatalf("canceled request: recorded %v, status %d, answered %d; want recorded with 499", ok, sum.Status, w.Code)
	}
	if len(sum.Stages) != 1 || sum.Stages[0].Name != "queue_wait" {
		t.Errorf("canceled request's stages %+v, want one queue_wait", sum.Stages)
	}

	close(release)
	<-held
	if n := len(s.sem); n != 0 {
		t.Errorf("%d slots taken after the held request ended, want 0", n)
	}
}
