package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// withWorkers sets the pool width for the rest of the test.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	orig := Workers()
	SetWorkers(n)
	t.Cleanup(func() { SetWorkers(orig) })
}

// indexes returns n empty items for tests that only use the index.
func indexes(n int) []struct{} { return make([]struct{}, n) }

func TestMapOrdered(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, 64} {
		withWorkers(t, workers)
		out, err := Map(items, func(i, v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != len(items) {
			t.Fatalf("workers=%d: got %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestDefaultFollowsGOMAXPROCS: with no override, the width is read
// from GOMAXPROCS when a pool starts, so at GOMAXPROCS 1 Map runs inline
// on the calling goroutine; SetWorkers overrides it and SetWorkers(0)
// returns to it.
func TestDefaultFollowsGOMAXPROCS(t *testing.T) {
	SetWorkers(0)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		SetWorkers(0)
	})
	if n := Workers(); n != 1 {
		t.Fatalf("Workers() = %d at GOMAXPROCS 1, want 1", n)
	}
	before := runtime.NumGoroutine()
	_, err := Map(indexes(16), func(i int, _ struct{}) (int, error) {
		if n := runtime.NumGoroutine(); n != before {
			return 0, fmt.Errorf("item %d ran beside %d other goroutines, want inline", i, n-before)
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	SetWorkers(3)
	if n := Workers(); n != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", n)
	}
	SetWorkers(0)
	runtime.GOMAXPROCS(2)
	if n := Workers(); n != 2 {
		t.Fatalf("Workers() = %d at GOMAXPROCS 2 after SetWorkers(0), want 2", n)
	}
}

func TestMapEmpty(t *testing.T) {
	withWorkers(t, 4)
	out, err := Map([]string(nil), func(i int, s string) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(nil) = %v, %v", out, err)
	}
}

func TestFirstErrorByIndex(t *testing.T) {
	// Several items fail; the reported error must always be the one with
	// the lowest index, regardless of worker count or scheduling.
	for _, workers := range []int{1, 2, 8} {
		withWorkers(t, workers)
		for trial := 0; trial < 20; trial++ {
			err := ForEach(indexes(50), func(i int, _ struct{}) error {
				if i == 7 || i == 8 || i == 33 {
					return fmt.Errorf("item %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "item 7 failed" {
				t.Fatalf("workers=%d: err = %v, want item 7 failed", workers, err)
			}
		}
	}
}

func TestSequentialStopsAtFirstError(t *testing.T) {
	// One worker must behave exactly like a plain loop: nothing after the
	// first error runs.
	withWorkers(t, 1)
	var ran atomic.Int64
	boom := errors.New("boom")
	err := ForEach(indexes(10), func(i int, _ struct{}) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 4 {
		t.Errorf("ran %d items, want 4", ran.Load())
	}
}

func TestErrorSkipsLaterItems(t *testing.T) {
	// After a failure, not-yet-dispatched indexes are skipped: with an
	// early error the pool should not run all 10000 items.
	withWorkers(t, 4)
	var ran atomic.Int64
	err := ForEach(indexes(10000), func(i int, _ struct{}) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("early")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if ran.Load() == 10000 {
		t.Error("pool ran every item despite an early failure")
	}
}

func TestBoundedConcurrency(t *testing.T) {
	const workers = 3
	withWorkers(t, workers)
	var cur, peak atomic.Int64
	err := ForEach(indexes(200), func(i int, _ struct{}) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent items, worker cap is %d", p, workers)
	}
}

func TestForEachPassesItems(t *testing.T) {
	items := []string{"a", "b", "c"}
	got := make([]string, len(items))
	withWorkers(t, 2)
	if err := ForEach(items, func(i int, s string) error {
		got[i] = s
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, s := range items {
		if got[i] != s {
			t.Errorf("got[%d] = %q, want %q", i, got[i], s)
		}
	}
}

func TestDefaultWorkers(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	if orig != runtime.NumCPU() {
		t.Errorf("initial default = %d, want NumCPU %d", orig, runtime.NumCPU())
	}
	SetWorkers(5)
	if Workers() != 5 {
		t.Errorf("SetWorkers(5) not applied: %d", Workers())
	}
	SetWorkers(0)
	if Workers() != runtime.NumCPU() {
		t.Errorf("reset default = %d, want NumCPU", Workers())
	}
	SetWorkers(-1)
	if Workers() != runtime.NumCPU() {
		t.Errorf("SetWorkers(-1) = %d, want NumCPU", Workers())
	}
}

func TestMapLocalOnePerWorker(t *testing.T) {
	// newLocal runs once per worker goroutine: with one worker a single
	// local serves every item.
	for _, workers := range []int{1, 3} {
		withWorkers(t, workers)
		var made atomic.Int64
		out, err := MapLocal(indexes(50), func() *int { made.Add(1); return new(int) },
			func(local *int, i int, _ struct{}) (int, error) { *local++; return i, nil })
		if err != nil || len(out) != 50 || out[49] != 49 {
			t.Fatalf("workers=%d: out = %v, err = %v", workers, out, err)
		}
		if m := made.Load(); m != int64(workers) {
			t.Errorf("workers=%d: %d locals built", workers, m)
		}
	}
}
