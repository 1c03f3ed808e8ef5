// Package par provides the bounded worker pool behind every parallel
// stage of the MPA pipeline: per-network OSP generation, per-network
// practice inference, per-fold cross-validation, per-tree forest
// training, and the experiment harness fan-out.
//
// Every pool runs at one process-wide width, Workers (mpa wires its
// -workers flag to SetWorkers). Unless SetWorkers overrides it, the width
// is runtime.GOMAXPROCS(0), read when each pool starts, so a process
// that lowers GOMAXPROCS (go test -cpu 1, GOMAXPROCS=1) gets narrower
// pools at once. The pool is built for deterministic
// pipelines. Items are dispatched in index order, results are collected
// into an index-addressed slice, and the error returned is always the
// erroring item with the lowest index — so a caller that derives per-item
// randomness *before* fanning out (the rng.Fork-then-Map pattern used
// across this repository) observes output that is byte-identical at any
// worker count, including 1, which runs the loop inline on the calling
// goroutine with no pool at all.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the SetWorkers override, 0 when unset. The default width
// is one worker per usable P: the pipeline's stages are CPU-bound, so
// that saturates the cores the scheduler may use without
// oversubscription.
var workers atomic.Int64

// SetWorkers sets the process-wide worker count every pool runs at.
// n <= 0 returns to the default, runtime.GOMAXPROCS(0).
func SetWorkers(n int) { workers.Store(int64(max(n, 0))) }

// Workers returns the process-wide worker count: the SetWorkers
// override, or runtime.GOMAXPROCS(0) when none is set.
func Workers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(i, items[i]) for every item on at most Workers goroutines
// and returns the results in item order. If any fn returns an error, Map
// returns a nil slice and the error from the lowest-index failing item;
// items not yet dispatched when an error occurs are skipped, but every
// item dispatched before the failure runs to completion, so the reported
// error does not depend on goroutine scheduling.
func Map[T, R any](items []T, fn func(int, T) (R, error)) ([]R, error) {
	return MapLocal(items, noLocal, func(_ struct{}, i int, item T) (R, error) { return fn(i, item) })
}

// ForEach runs fn(i, items[i]) for every item with Map's scheduling and
// error semantics, discarding results.
func ForEach[T any](items []T, fn func(int, T) error) error {
	_, err := MapLocal(items, noLocal, func(_ struct{}, i int, item T) (struct{}, error) {
		return struct{}{}, fn(i, item)
	})
	return err
}

func noLocal() struct{} { return struct{}{} }

// MapLocal is Map with per-worker local state: newLocal() is called once
// per worker goroutine (once total on the inline one-worker path) and the
// returned value is passed to every fn invocation that worker runs. It
// exists so hot loops can thread reusable scratch buffers (e.g.
// confmodel.Scratch) through the pool without sharing them across
// goroutines: each local is owned by exactly one worker, so fn may mutate
// it freely, and because locals hold only caches/buffers the output stays
// byte-identical at any worker count.
func MapLocal[T, R, L any](items []T, newLocal func() L, fn func(local L, i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	results := make([]R, n)
	if n == 0 {
		return results, nil
	}
	w := min(Workers(), n)
	if w <= 1 {
		// Inline sequential path: one worker must behave exactly like a
		// plain loop, including stopping at the first error without
		// touching later items and paying zero goroutine overhead.
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
		next   atomic.Int64 // next index to dispatch
		failed atomic.Bool  // stops dispatch of new indexes after an error
		errs   = make([]error, n)
		wg     sync.WaitGroup
	)
	wg.Add(w)
	for range w {
		go func() {
			defer wg.Done()
			local := newLocal()
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
