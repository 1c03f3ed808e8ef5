// Package cache provides the pipeline's memoization: Memo, a per-key
// single-flight memo for answers computed from one immutable snapshot
// (the framework's query memo lives on each snapshot), and Cache, a
// content-addressed disk tier for per-network practice inference and
// for the daemon's organization-wide answer bodies, so a fresh process
// re-analyzing unchanged inputs skips the work. Disk keys
// are SHA-256 digests over canonical input bytes.
//
// Both are strictly optimizations: every memoized value is a pure
// function of its key's preimage, so cold, warm, and uncached runs
// produce byte-identical results (enforced by TestCacheEquivalence in
// internal/experiments). Memoized values are shared pointers and MUST be
// treated as immutable by both producers and consumers.
//
// The disk tier's hit/miss/error counters and read-latency histogram are
// registered with internal/obs under "cache.<stage>.*" and show up in
// `mpa stats` and /debug/vars alongside the rest of the pipeline's
// metrics.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"time"
	"unsafe"

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
	h   hash.Hash
	buf [16]byte // a frame's length prefix and an Int part's bytes
}

// NewHasher returns a Hasher seeded with a namespace label (conventionally
// "<stage>/v<N>"; bump the version to invalidate old entries after a
// semantic change to the stage).
func NewHasher(namespace string) *Hasher {
	hh := &Hasher{h: sha256.New()}
	return hh.String(namespace)
}

// String adds a string part and returns the hasher for chaining. The
// string's bytes are hashed in place, not copied: a hash.Hash's Write,
// like any io.Writer's, neither modifies nor retains p.
func (h *Hasher) String(s string) *Hasher {
	binary.LittleEndian.PutUint64(h.buf[:8], uint64(len(s)))
	h.h.Write(h.buf[:8])
	h.h.Write(unsafe.Slice(unsafe.StringData(s), len(s)))
	return h
}

// Int adds an integer part: a frame of its 8 little-endian bytes.
func (h *Hasher) Int(v int64) *Hasher {
	binary.LittleEndian.PutUint64(h.buf[:8], 8)
	binary.LittleEndian.PutUint64(h.buf[8:], uint64(v))
	h.h.Write(h.buf[:])
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

// Config places the pipeline's on-disk cache tier.
type Config struct {
	// Enabled is ignored: the tier is on exactly when Dir is set.
	//
	// Deprecated: set Dir.
	Enabled bool
	// Dir is the disk tier's root directory; empty disables caching. The
	// directory is shared across stages (each stage writes under its own
	// subdirectory) and across processes: a re-run with the same Dir
	// skips all unchanged per-network work.
	Dir string
}

// Cache is one stage's disk tier, safe for concurrent use. A nil *Cache
// (no Dir) caches nothing: GetOrCompute computes directly.
type Cache struct {
	stage string
	dir   string

	diskHits, diskMisses  *obs.Counter
	diskErrs, diskCorrupt *obs.Counter
	diskGet               *obs.LogHistogram // nanoseconds
}

// New returns the disk tier for one stage ("practices", "answers"), or nil
// when cfg.Dir is empty.
func New(stage string, cfg Config) *Cache {
	if cfg.Dir == "" {
		return nil
	}
	return &Cache{
		stage:       stage,
		dir:         filepath.Join(cfg.Dir, stage),
		diskHits:    obs.GetCounter("cache." + stage + ".disk_hits"),
		diskMisses:  obs.GetCounter("cache." + stage + ".disk_misses"),
		diskErrs:    obs.GetCounter("cache." + stage + ".disk_errors"),
		diskCorrupt: obs.GetCounter("cache." + stage + ".disk_corrupt"),
		diskGet:     obs.GetLogHistogram("cache." + stage + ".disk_get_ns"),
	}
}

// diskPath shards entries by the first key byte to keep directories small.
func (c *Cache) diskPath(k Key) string {
	hx := k.Hex()
	return filepath.Join(c.dir, hx[:2], hx)
}

// getBytes reads the key's disk entry. It returns false when the entry
// is absent or unreadable (corrupt or concurrently removed entries
// degrade to misses).
func (c *Cache) getBytes(k Key) ([]byte, bool) {
	start := time.Now()
	b, err := os.ReadFile(c.diskPath(k))
	c.diskGet.Observe(float64(time.Since(start).Nanoseconds()))
	if err != nil {
		c.diskMisses.Add(1)
		return nil, false
	}
	c.diskHits.Add(1)
	return b, true
}

// putBytes writes the key's disk entry atomically (write to a temp file,
// then rename), so concurrent writers of the same key and crashed runs
// never leave a torn entry. Errors are reported through the
// "cache.<stage>.disk_errors" counter and the debug log rather than
// failing the pipeline: the cache is an optimization.
func (c *Cache) putBytes(k Key, b []byte) {
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

// Codec serializes values for the disk tier.
type Codec[V any] struct {
	Encode func(V) ([]byte, error)
	Decode func([]byte) (V, error)
}

// GetOrCompute returns the value stored on disk under k, or computes it
// and writes it to disk. A nil cache calls compute directly. Decode
// failures (stale format, torn entry) degrade to recomputation, never to
// an error; the corrupt file is deleted (and re-written from the fresh
// computation) so one bad entry cannot poison every subsequent run.
func GetOrCompute[V any](c *Cache, k Key, codec Codec[V], compute func() (V, error)) (V, error) {
	if c == nil {
		return compute()
	}
	if b, ok := c.getBytes(k); ok {
		v, derr := codec.Decode(b)
		if derr == nil {
			return v, nil
		}
		c.corruptEntry(k, derr)
	}
	v, err := compute()
	if err != nil {
		var zero V
		return zero, err
	}
	if b, err := codec.Encode(v); err == nil {
		c.putBytes(k, b)
	} else {
		c.diskErrs.Add(1)
	}
	return v, nil
}
