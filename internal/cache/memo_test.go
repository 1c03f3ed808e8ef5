package cache

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitForWaiters returns once n goroutines are parked in Do waiting on a
// flight, which it reads from the goroutine dump: the dump is the only
// place a waiter's arrival is visible without a hook in Memo itself. A
// memo that serializes or duplicates computes never parks a waiter
// there, so the wait times out and fails the test.
func waitForWaiters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		dump := string(buf[:runtime.Stack(buf, true)])
		parked := 0
		for _, g := range strings.Split(dump, "\n\n") {
			header, frames, _ := strings.Cut(g, "\n")
			if strings.Contains(header, "[chan receive") && strings.HasPrefix(frames, "mpa/internal/cache.(*Memo).Do(") {
				parked++
			}
		}
		if parked >= n {
			return
		}
	}
	t.Fatalf("%d callers never joined the in-flight compute", n)
}

// within fails the test if fn has not returned after a few seconds, so a
// deadlocked memo fails instead of hanging the suite.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return: deadlock", what)
	}
}

func TestMemoSingleFlight(t *testing.T) {
	const callers = 16
	m := new(Memo)
	var computes atomic.Int32
	release := make(chan struct{})
	compute := func() (any, error) {
		computes.Add(1)
		<-release
		return 42, nil
	}
	var hits atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := m.Do("k", compute)
			if err != nil || v != 42 {
				t.Errorf("Do = %v, %v", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	waitForWaiters(t, callers-1)
	close(release)
	within(t, "concurrent callers", wg.Wait)
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d callers ran the compute %d times, want 1", callers, n)
	}
	if n := hits.Load(); n != callers-1 {
		t.Fatalf("%d hits, want %d", n, callers-1)
	}
}

func TestMemoKeysComputeConcurrently(t *testing.T) {
	m := new(Memo)
	aStarted, bStarted := make(chan struct{}), make(chan struct{})
	errA := make(chan error, 1)
	go func() {
		_, _, err := m.Do("a", func() (any, error) {
			close(aStarted)
			select {
			case <-bStarted:
				return "a", nil
			case <-time.After(5 * time.Second):
				return nil, errors.New("b's compute never started while a's ran")
			}
		})
		errA <- err
	}()
	<-aStarted
	within(t, "b", func() {
		if _, _, err := m.Do("b", func() (any, error) { close(bStarted); return "b", nil }); err != nil {
			t.Error(err)
		}
	})
	if err := <-errA; err != nil {
		t.Fatal(err)
	}
}

func TestMemoNestedKey(t *testing.T) {
	m := new(Memo)
	within(t, "nested Do", func() {
		v, _, err := m.Do("outer", func() (any, error) {
			inner, _, err := m.Do("inner", func() (any, error) { return 1, nil })
			if err != nil {
				return nil, err
			}
			return inner.(int) + 1, nil
		})
		if err != nil || v != 2 {
			t.Errorf("nested Do = %v, %v", v, err)
		}
	})
	if _, hit, _ := m.Do("inner", func() (any, error) { return 0, nil }); !hit {
		t.Fatal("inner key was not memoized")
	}
}

func TestMemoErrorNotRemembered(t *testing.T) {
	m := new(Memo)
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	firstErr := make(chan error, 1)
	go func() {
		_, _, err := m.Do("k", func() (any, error) {
			close(started)
			<-release
			return nil, boom
		})
		firstErr <- err
	}()
	<-started
	if !m.Has("k") || m.Has("other") {
		t.Fatalf("Has during the flight = %v, Has(other) = %v; want true, false", m.Has("k"), m.Has("other"))
	}
	waiter := make(chan error, 1)
	go func() {
		_, hit, err := m.Do("k", func() (any, error) { return "waiter computed", nil })
		if !hit {
			err = errors.New("waiter ran its own compute instead of joining the flight")
		}
		waiter <- err
	}()
	waitForWaiters(t, 1)
	close(release)
	if err := <-firstErr; err != boom {
		t.Fatalf("caller err = %v, want boom", err)
	}
	if err := <-waiter; err != boom {
		t.Fatalf("waiter err = %v, want boom", err)
	}
	if m.Has("k") {
		t.Fatal("Has after a failed compute = true")
	}
	v, hit, err := m.Do("k", func() (any, error) { return 7, nil })
	if err != nil || v != 7 || hit {
		t.Fatalf("after an error Do = %v, hit %v, %v; want a fresh compute", v, hit, err)
	}
	if !m.Has("k") {
		t.Fatal("Has after a stored compute = false")
	}
}

func TestMemoPanicReleasesWaiters(t *testing.T) {
	m := new(Memo)
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		m.Do("k", func() (any, error) {
			close(started)
			<-release
			panic("compute failed")
		})
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, _, err := m.Do("k", func() (any, error) { return "waiter computed", nil })
		waiter <- err
	}()
	waitForWaiters(t, 1)
	close(release)
	if p := <-recovered; p != "compute failed" {
		t.Fatalf("panic value at the caller = %v", p)
	}
	select {
	case err := <-waiter:
		if err == nil {
			t.Fatal("waiter of a panicked compute got no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter of a panicked compute hangs")
	}
	v, hit, err := m.Do("k", func() (any, error) { return 3, nil })
	if err != nil || v != 3 || hit {
		t.Fatalf("after a panic Do = %v, hit %v, %v; want a fresh compute", v, hit, err)
	}
}

func TestMemoNil(t *testing.T) {
	var m *Memo
	if m.Has("k") {
		t.Fatal("nil Has = true")
	}
	calls := 0
	for i := 0; i < 3; i++ {
		v, hit, err := m.Do("k", func() (any, error) { calls++; return calls, nil })
		if err != nil || hit || v != i+1 {
			t.Fatalf("nil Do #%d = %v, hit %v, %v", i, v, hit, err)
		}
	}
}
