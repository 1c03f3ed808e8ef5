// Package par provides the bounded worker pool behind every parallel
// stage of the MPA pipeline: per-network OSP generation, per-network
// practice inference, per-fold cross-validation, per-tree forest
// training, and the experiment harness fan-out.
//
// The pool is built for deterministic pipelines. Items are dispatched in
// index order, results are collected into an index-addressed slice, and
// the error returned is always the erroring item with the lowest index —
// so a caller that derives per-item randomness *before* fanning out (the
// rng.Fork-then-Map pattern used across this repository) observes output
// that is byte-identical at any worker count, including workers=1, which
// runs the loop inline on the calling goroutine with no pool at all.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the process-wide worker count used when a call site
// passes workers <= 0. It starts at runtime.NumCPU(): the pipeline's
// stages are CPU-bound, so one worker per core saturates the hardware
// without oversubscription.
var defaultWorkers atomic.Int64

func init() { defaultWorkers.Store(int64(runtime.NumCPU())) }

// SetDefaultWorkers sets the process-wide default worker count applied
// when a call site passes workers <= 0 (mpa wires its -workers flag
// here). n <= 0 resets the default to runtime.NumCPU().
func SetDefaultWorkers(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers returns the current process-wide default worker count.
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// Resolve maps a call-site worker count to an effective one: positive
// values pass through, zero and below resolve to the process default.
func Resolve(workers int) int {
	if workers > 0 {
		return workers
	}
	return DefaultWorkers()
}

// Map runs fn(i, items[i]) for every item on at most workers goroutines
// (workers <= 0 uses the process default) and returns the results in item
// order. If any fn returns an error, Map returns a nil slice and the
// error from the lowest-index failing item; items not yet dispatched when
// an error occurs are skipped, but every item dispatched before the
// failure runs to completion, so the reported error does not depend on
// goroutine scheduling.
func Map[T, R any](workers int, items []T, fn func(int, T) (R, error)) ([]R, error) {
	results := make([]R, len(items))
	err := ForEachN(workers, len(items), func(i int) error {
		r, err := fn(i, items[i])
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// MapLocal is Map with per-worker local state: newLocal() is called once
// per worker goroutine (once total on the inline workers<=1 path) and the
// returned value is passed to every fn invocation that worker runs. It
// exists so hot loops can thread reusable scratch buffers (e.g.
// confmodel.Scratch) through the pool without sharing them across
// goroutines: each local is owned by exactly one worker, so fn may mutate
// it freely, and because locals hold only caches/buffers the output stays
// byte-identical at any worker count.
func MapLocal[T, R, L any](workers int, items []T, newLocal func() L, fn func(local L, i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	results := make([]R, n)
	if n == 0 {
		return results, nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		local := newLocal()
		for i, item := range items {
			r, err := fn(local, i, item)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		errs   = make([]error, n)
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			local := newLocal()
			for {
				// Same dispatch discipline as ForEachN: check failure before
				// claiming, so the lowest-index error is deterministic.
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := fn(local, i, items[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// ForEach runs fn(i, items[i]) for every item with Map's scheduling and
// error semantics, discarding results.
func ForEach[T any](workers int, items []T, fn func(int, T) error) error {
	return ForEachN(workers, len(items), func(i int) error { return fn(i, items[i]) })
}

// ForEachN runs fn(i) for i in [0, n) on at most workers goroutines
// (workers <= 0 uses the process default). Indexes are dispatched in
// ascending order; on error the lowest-index failure is returned and
// not-yet-dispatched indexes are skipped.
func ForEachN(workers, n int, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Inline sequential path: -workers 1 must behave exactly like the
		// pre-pool loop, including stopping at the first error without
		// touching later items and paying zero goroutine overhead.
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64 // next index to dispatch
		failed atomic.Bool  // stops dispatch of new indexes after an error
		errs   = make([]error, n)
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				// The failure check happens before claiming an index, never
				// after: once an index is claimed it always runs, so every
				// index below a recorded failure has also run and recorded
				// its own outcome — the lowest-index error is then exactly
				// the error a sequential loop would have returned.
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
