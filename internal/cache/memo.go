package cache

import (
	"errors"
	"sync"
)

// errComputePanicked is what callers waiting on a flight receive when the
// flight's compute panicked; the panic itself propagates to the caller
// that ran the compute.
var errComputePanicked = errors.New("cache: memoized compute panicked")

// Memo is a per-key single-flight memo for values computed from data
// that never changes under it, such as one immutable snapshot. The first
// caller of a key runs the compute outside any lock; concurrent callers
// of the same key wait for that flight and share its result, while other
// keys compute in parallel. A compute may itself call Do for another key
// of the same Memo. Errors are not remembered: the failed entry is
// removed, its waiters receive the error, and the next caller recomputes.
// Stored values are shared and must be treated as immutable.
//
// The zero Memo is empty and ready to use; a nil *Memo computes on every
// call.
type Memo struct {
	mu      sync.Mutex
	flights map[string]*flight
}

// flight is one key's computation; done closes when val and err are set.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Has reports whether key holds a finished or in-flight entry, without
// waiting for it or computing anything.
func (m *Memo) Has(key string) bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.flights[key]
	return ok
}

// Do returns the value memoized under key, running compute on a miss.
// hit reports whether the call found a finished or in-flight entry rather
// than running compute itself.
func (m *Memo) Do(key string, compute func() (any, error)) (val any, hit bool, err error) {
	if m == nil {
		val, err = compute()
		return val, false, err
	}
	m.mu.Lock()
	if f, ok := m.flights[key]; ok {
		m.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	if m.flights == nil {
		m.flights = make(map[string]*flight)
	}
	f := &flight{done: make(chan struct{})}
	m.flights[key] = f
	m.mu.Unlock()

	finished := false
	defer func() {
		if !finished {
			// compute panicked: fail the waiters and let the panic go on.
			f.val, f.err = nil, errComputePanicked
		}
		if f.err != nil {
			m.mu.Lock()
			delete(m.flights, key)
			m.mu.Unlock()
		}
		close(f.done)
	}()
	f.val, f.err = compute()
	finished = true
	return f.val, false, f.err
}
