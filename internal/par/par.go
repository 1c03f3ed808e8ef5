// Package par provides the bounded worker pool behind every parallel
// stage of the MPA pipeline: per-network OSP generation, per-network
// practice inference, per-fold cross-validation, per-tree forest
// training, and the experiment harness fan-out.
//
// Every pool runs at one process-wide width, Workers (mpa wires its
// -workers flag to SetWorkers). The pool is built for deterministic
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

// workers is the process-wide pool width. It starts at runtime.NumCPU():
// the pipeline's stages are CPU-bound, so one worker per core saturates
// the hardware without oversubscription.
var workers atomic.Int64

func init() { workers.Store(int64(runtime.NumCPU())) }

// SetWorkers sets the process-wide worker count every pool runs at.
// n <= 0 resets it to runtime.NumCPU().
func SetWorkers(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	workers.Store(int64(n))
}

// Workers returns the process-wide worker count.
func Workers() int { return int(workers.Load()) }

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
