// Package cache provides the content-addressed memoization layer behind
// the pipeline's per-network practice inference and the framework's
// query memo, so unchanged inputs are not recomputed. Keys are SHA-256
// digests over canonical input bytes; values live in a bounded in-memory
// LRU tier and, optionally, in an on-disk tier so warm re-runs of a fresh
// process still hit.
//
// The cache is strictly an optimization: every cached stage is a pure
// function of its key's preimage, so a cold run, a warm run, and a
// cache-disabled run produce byte-identical results (enforced by
// TestCacheEquivalence in internal/experiments). Values stored in the
// memory tier are shared pointers and MUST be treated as immutable by
// both producers and consumers.
//
// Hit/miss/evict counters and per-tier latency histograms are registered
// with internal/obs under "cache.<stage>.*" and show up in `mpa stats`
// and /debug/vars alongside the rest of the pipeline's metrics.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mpa/internal/obs"
)

// Key is a SHA-256 digest identifying one cached computation by the
// canonical bytes of its inputs.
type Key [sha256.Size]byte

// Hex returns the key as a lowercase hex string.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// Hasher accumulates canonical input bytes into a Key. Every part is
// length-prefixed, so distinct part sequences can never collide by
// concatenation ("ab","c" vs "a","bc").
type Hasher struct {
	h hash.Hash
}

// NewHasher returns a Hasher seeded with a namespace label (conventionally
// "<stage>/v<N>"; bump the version to invalidate old entries after a
// semantic change to the stage).
func NewHasher(namespace string) *Hasher {
	hh := &Hasher{h: sha256.New()}
	return hh.String(namespace)
}

// writeFrame writes a length-prefixed byte sequence.
func (h *Hasher) writeFrame(p []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
	h.h.Write(n[:])
	h.h.Write(p)
}

// String adds a string part and returns the hasher for chaining.
func (h *Hasher) String(s string) *Hasher {
	h.writeFrame([]byte(s))
	return h
}

// Int adds an integer part.
func (h *Hasher) Int(v int64) *Hasher {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(v))
	h.writeFrame(n[:])
	return h
}

// Time adds an instant (nanosecond precision, location-independent).
func (h *Hasher) Time(t time.Time) *Hasher { return h.Int(t.UnixNano()) }

// Sum finalizes and returns the key. The hasher must not be reused.
func (h *Hasher) Sum() Key {
	var k Key
	h.h.Sum(k[:0])
	return k
}

// KeyOf is a convenience for small keys: a namespace plus string parts.
func KeyOf(namespace string, parts ...string) Key {
	h := NewHasher(namespace)
	for _, p := range parts {
		h.String(p)
	}
	return h.Sum()
}

// DefaultMaxEntries bounds each stage's in-memory tier when Config leaves
// MaxEntries zero. Entries are whole stage outputs (a network's month
// analyses, a query answer), so a few thousand covers paper scale.
const DefaultMaxEntries = 4096

// Config enables and parameterizes the pipeline caches. The zero value
// disables caching entirely, preserving uncached behavior.
type Config struct {
	// Enabled turns the cache on. Disabled caches cost nothing: New
	// returns nil and every method on a nil *Cache is a no-op.
	Enabled bool
	// Dir is the on-disk tier's root directory; empty keeps the cache
	// memory-only. The directory is shared across stages (each stage
	// writes under its own subdirectory) and across processes: a warm
	// re-run with the same Dir skips all unchanged per-network work.
	Dir string
	// MaxEntries bounds the in-memory LRU tier per stage; zero means
	// DefaultMaxEntries.
	MaxEntries int
}

// Stats is a point-in-time snapshot of one cache's activity.
type Stats struct {
	MemHits    int64
	MemMisses  int64
	DiskHits   int64
	DiskMisses int64
	Evictions  int64
	Entries    int
}

// Cache is one stage's two-tier store. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Cache struct {
	stage string
	dir   string // "" = memory-only
	max   int

	mu      sync.Mutex
	entries map[Key]*list.Element
	ll      *list.List // front = most recently used

	memHits, memMisses   *obs.Counter
	diskHits, diskMisses *obs.Counter
	evictions, diskErrs  *obs.Counter
	diskCorrupt          *obs.Counter
	memGet, diskGet      *obs.LogHistogram // nanoseconds

	stats struct {
		memHits, memMisses, diskHits, diskMisses, evictions int64
	}
}

type entry struct {
	key Key
	val any
}

// New returns the cache for one pipeline stage ("practices", "query"),
// or nil when cfg.Enabled is false.
func New(stage string, cfg Config) *Cache {
	if !cfg.Enabled {
		return nil
	}
	max := cfg.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	dir := cfg.Dir
	if dir != "" {
		dir = filepath.Join(dir, stage)
	}
	return &Cache{
		stage:       stage,
		dir:         dir,
		max:         max,
		entries:     map[Key]*list.Element{},
		ll:          list.New(),
		memHits:     obs.GetCounter("cache." + stage + ".mem_hits"),
		memMisses:   obs.GetCounter("cache." + stage + ".mem_misses"),
		diskHits:    obs.GetCounter("cache." + stage + ".disk_hits"),
		diskMisses:  obs.GetCounter("cache." + stage + ".disk_misses"),
		evictions:   obs.GetCounter("cache." + stage + ".evictions"),
		diskErrs:    obs.GetCounter("cache." + stage + ".disk_errors"),
		diskCorrupt: obs.GetCounter("cache." + stage + ".disk_corrupt"),
		memGet:      obs.GetLogHistogram("cache." + stage + ".mem_get_ns"),
		diskGet:     obs.GetLogHistogram("cache." + stage + ".disk_get_ns"),
	}
}

// Stage returns the stage name the cache was created for.
func (c *Cache) Stage() string {
	if c == nil {
		return ""
	}
	return c.stage
}

// Stats returns this instance's activity counts (the obs counters
// aggregate across instances of the same stage; Stats is per-instance).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		MemHits:    c.stats.memHits,
		MemMisses:  c.stats.memMisses,
		DiskHits:   c.stats.diskHits,
		DiskMisses: c.stats.diskMisses,
		Evictions:  c.stats.evictions,
		Entries:    len(c.entries),
	}
}

// Get looks the key up in the memory tier.
func (c *Cache) Get(k Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	start := time.Now()
	c.mu.Lock()
	el, ok := c.entries[k]
	if ok {
		c.ll.MoveToFront(el)
		c.stats.memHits++
	} else {
		c.stats.memMisses++
	}
	c.mu.Unlock()
	c.memGet.Observe(float64(time.Since(start).Nanoseconds()))
	if !ok {
		c.memMisses.Add(1)
		return nil, false
	}
	c.memHits.Add(1)
	return el.Value.(*entry).val, true
}

// Put stores the value in the memory tier, evicting the least recently
// used entry when the tier is full.
func (c *Cache) Put(k Key, v any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*entry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.entries[k] = c.ll.PushFront(&entry{key: k, val: v})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).key)
		c.stats.evictions++
		c.evictions.Add(1)
	}
}

// diskPath shards entries by the first key byte to keep directories small.
func (c *Cache) diskPath(k Key) string {
	hx := k.Hex()
	return filepath.Join(c.dir, hx[:2], hx)
}

// GetBytes looks the key up in the disk tier. It returns false when the
// tier is disabled, the entry is absent, or the file is unreadable
// (corrupt or concurrently removed entries degrade to misses).
func (c *Cache) GetBytes(k Key) ([]byte, bool) {
	if c == nil || c.dir == "" {
		return nil, false
	}
	start := time.Now()
	b, err := os.ReadFile(c.diskPath(k))
	c.diskGet.Observe(float64(time.Since(start).Nanoseconds()))
	if err != nil {
		c.diskMisses.Add(1)
		c.mu.Lock()
		c.stats.diskMisses++
		c.mu.Unlock()
		return nil, false
	}
	c.diskHits.Add(1)
	c.mu.Lock()
	c.stats.diskHits++
	c.mu.Unlock()
	return b, true
}

// PutBytes stores encoded bytes in the disk tier, atomically (write to a
// temp file, then rename), so concurrent writers of the same key and
// crashed runs never leave a torn entry. Errors are reported through the
// "cache.<stage>.disk_errors" counter and the debug log rather than
// failing the pipeline: the cache is an optimization.
func (c *Cache) PutBytes(k Key, b []byte) {
	if c == nil || c.dir == "" {
		return
	}
	path := c.diskPath(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		c.diskError(k, err)
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		c.diskError(k, err)
		return
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		c.diskError(k, fmt.Errorf("write: %v, close: %v", werr, cerr))
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		c.diskError(k, err)
	}
}

func (c *Cache) diskError(k Key, err error) {
	c.diskErrs.Add(1)
	obs.Logger().Debug("cache disk write failed",
		"stage", c.stage, "key", k.Hex()[:12], "err", err)
}

// corruptEntry handles an undecodable disk entry (truncated by a crash or
// a full disk, or written by an older format): the bad file is deleted so
// every later warm run misses cleanly instead of re-reading and
// re-failing, and the event is counted under "cache.<stage>.disk_corrupt".
func (c *Cache) corruptEntry(k Key, err error) {
	c.diskCorrupt.Add(1)
	if rmErr := os.Remove(c.diskPath(k)); rmErr != nil && !os.IsNotExist(rmErr) {
		c.diskError(k, rmErr)
	}
	obs.Logger().Warn("cache: deleted corrupt disk entry",
		"stage", c.stage, "key", k.Hex()[:12], "err", err)
}

// Codec serializes values for the disk tier. A zero Codec (nil funcs)
// keeps the value memory-only, which suits results that are cheap to
// recompute from data the process already holds.
type Codec[V any] struct {
	Encode func(V) ([]byte, error)
	Decode func([]byte) (V, error)
}

// GetOrCompute returns the cached value for k, consulting the memory tier
// then the disk tier, computing and storing it on a full miss. A nil
// cache calls compute directly. Decode failures (stale format, torn
// entry) degrade to recomputation, never to an error; the corrupt file is
// deleted (and re-written from the fresh computation) so one bad entry
// cannot poison every subsequent warm run.
func GetOrCompute[V any](c *Cache, k Key, codec Codec[V], compute func() (V, error)) (V, error) {
	if c == nil {
		return compute()
	}
	if v, ok := c.Get(k); ok {
		return v.(V), nil
	}
	if codec.Decode != nil {
		if b, ok := c.GetBytes(k); ok {
			v, derr := codec.Decode(b)
			if derr == nil {
				c.Put(k, v)
				return v, nil
			}
			c.corruptEntry(k, derr)
		}
	}
	v, err := compute()
	if err != nil {
		var zero V
		return zero, err
	}
	c.Put(k, v)
	if codec.Encode != nil {
		if b, err := codec.Encode(v); err == nil {
			c.PutBytes(k, b)
		} else {
			c.diskErrs.Add(1)
		}
	}
	return v, nil
}
