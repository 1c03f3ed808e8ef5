package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"mpa/internal/obs"
)

func TestKeyFraming(t *testing.T) {
	// Length-prefix framing: distinct part splits must not collide.
	a := KeyOf("ns", "ab", "c")
	b := KeyOf("ns", "a", "bc")
	if a == b {
		t.Fatal("framing collision: (ab,c) == (a,bc)")
	}
	// Namespaces separate key spaces.
	if KeyOf("ns1", "x") == KeyOf("ns2", "x") {
		t.Fatal("namespace collision")
	}
	// Keys are deterministic.
	if a != KeyOf("ns", "ab", "c") {
		t.Fatal("key not deterministic")
	}
	// Hasher and KeyOf agree.
	if got := NewHasher("ns").String("ab").String("c").Sum(); got != a {
		t.Fatalf("Hasher sum %s != KeyOf %s", got.Hex(), a.Hex())
	}
	if len(a.Hex()) != 64 {
		t.Fatalf("hex length %d", len(a.Hex()))
	}
}

func TestHasherParts(t *testing.T) {
	// Int and String parts of identical bytes must not collide: the frame
	// contents differ (8-byte little-endian vs text).
	h1 := NewHasher("ns").Int(42).Sum()
	h2 := NewHasher("ns").String("42").Sum()
	if h1 == h2 {
		t.Fatal("Int/String collision")
	}
}

func TestDisabledAndNil(t *testing.T) {
	if c := New("stage", Config{}); c != nil {
		t.Fatal("disabled config should yield nil cache")
	}
	var c *Cache
	if _, ok := c.Get(Key{}); ok {
		t.Fatal("nil Get hit")
	}
	c.Put(Key{}, 1) // must not panic
	c.PutBytes(Key{}, nil)
	if _, ok := c.GetBytes(Key{}); ok {
		t.Fatal("nil GetBytes hit")
	}
	if c.Stats() != (Stats{}) {
		t.Fatal("nil Stats non-zero")
	}
	calls := 0
	v, err := GetOrCompute(c, Key{}, Codec[int]{}, func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 || calls != 1 {
		t.Fatalf("nil GetOrCompute = %d, %v (calls %d)", v, err, calls)
	}
}

func TestMemoryTierLRU(t *testing.T) {
	c := New("test-lru", Config{Enabled: true, MaxEntries: 2})
	k := func(i int) Key { return KeyOf("k", strconv.Itoa(i)) }
	c.Put(k(1), "one")
	c.Put(k(2), "two")
	if v, ok := c.Get(k(1)); !ok || v != "one" {
		t.Fatal("miss on k1")
	}
	// k2 is now least recently used; inserting k3 must evict it.
	c.Put(k(3), "three")
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("k2 survived eviction")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("k1 evicted out of LRU order")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v", s)
	}
	// Overwriting an existing key must not grow the cache.
	c.Put(k(1), "uno")
	if v, _ := c.Get(k(1)); v != "uno" {
		t.Fatal("overwrite lost")
	}
	if s := c.Stats(); s.Entries != 2 {
		t.Fatalf("entries after overwrite = %d", s.Entries)
	}
}

func TestDiskTier(t *testing.T) {
	dir := t.TempDir()
	c := New("test-disk", Config{Enabled: true, Dir: dir})
	k := KeyOf("k", "x")
	if _, ok := c.GetBytes(k); ok {
		t.Fatal("hit on empty disk tier")
	}
	c.PutBytes(k, []byte("payload"))
	b, ok := c.GetBytes(k)
	if !ok || string(b) != "payload" {
		t.Fatalf("disk round trip = %q, %v", b, ok)
	}
	// A second instance over the same dir (fresh process simulation) hits.
	c2 := New("test-disk", Config{Enabled: true, Dir: dir})
	if _, ok := c2.GetBytes(k); !ok {
		t.Fatal("fresh instance missed persisted entry")
	}
	// Entries are sharded under the stage subdirectory.
	path := filepath.Join(dir, "test-disk", k.Hex()[:2], k.Hex())
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("expected entry at %s: %v", path, err)
	}
	// A corrupt entry degrades to a decode-side miss in GetOrCompute.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	calls := 0
	v, err := GetOrCompute(New("test-disk", Config{Enabled: true, Dir: dir}), k,
		Codec[int]{
			Encode: func(v int) ([]byte, error) { return []byte(strconv.Itoa(v)), nil },
			Decode: func(b []byte) (int, error) { return strconv.Atoi(string(b)) },
		},
		func() (int, error) { calls++; return 5, nil })
	if err != nil || v != 5 || calls != 1 {
		t.Fatalf("corrupt entry not recomputed: %d, %v, calls %d", v, err, calls)
	}
}

func TestDiskCorruptEntryRecovered(t *testing.T) {
	// Regression: a truncated entry (crash mid-write, disk-full tail) used
	// to fail decode on every warm run with the bad file left in place,
	// poisoning the disk tier until manual cleanup. It must degrade to a
	// miss, be deleted, counted under cache.<stage>.disk_corrupt, and be
	// replaced by the recomputed value.
	dir := t.TempDir()
	cfg := Config{Enabled: true, Dir: dir}
	codec := Codec[string]{
		Encode: func(s string) ([]byte, error) { return []byte("v1:" + s), nil },
		Decode: func(b []byte) (string, error) {
			if len(b) < 3 || string(b[:3]) != "v1:" {
				return "", fmt.Errorf("bad header")
			}
			return string(b[3:]), nil
		},
	}
	k := KeyOf("k", "truncated")
	calls := 0
	compute := func() (string, error) { calls++; return "payload", nil }

	c := New("test-corrupt", cfg)
	if _, err := GetOrCompute(c, k, codec, compute); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "test-corrupt", k.Hex()[:2], k.Hex())
	// Truncate the entry mid-payload, as a crash between write and rename
	// completion (or a full disk) would.
	if err := os.WriteFile(path, []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}

	corruptBefore := obs.GetCounter("cache.test-corrupt.disk_corrupt").Value()
	c2 := New("test-corrupt", cfg) // fresh memory tier, warm (bad) disk tier
	v, err := GetOrCompute(c2, k, codec, compute)
	if err != nil || v != "payload" {
		t.Fatalf("recovery = %q, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("computed %d times, want 2 (recompute after corrupt entry)", calls)
	}
	if got := obs.GetCounter("cache.test-corrupt.disk_corrupt").Value() - corruptBefore; got != 1 {
		t.Fatalf("disk_corrupt counter rose by %d, want 1", got)
	}
	// The recomputed value was re-persisted: the file decodes again and a
	// third fresh instance serves it from disk without recomputation.
	b, readErr := os.ReadFile(path)
	if readErr != nil {
		t.Fatalf("entry not re-written after recovery: %v", readErr)
	}
	if got, decErr := codec.Decode(b); decErr != nil || got != "payload" {
		t.Fatalf("re-written entry decodes to %q, %v", got, decErr)
	}
	if _, err := GetOrCompute(New("test-corrupt", cfg), k, codec, compute); err != nil || calls != 2 {
		t.Fatalf("healed tier recomputed (calls %d), err %v", calls, err)
	}
}

func TestGetOrComputeTiers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Enabled: true, Dir: dir}
	codec := Codec[string]{
		Encode: func(s string) ([]byte, error) { return []byte(s), nil },
		Decode: func(b []byte) (string, error) { return string(b), nil },
	}
	k := KeyOf("k", "v")
	calls := 0
	compute := func() (string, error) { calls++; return "value", nil }

	c := New("test-tiers", cfg)
	for i := 0; i < 3; i++ {
		v, err := GetOrCompute(c, k, codec, compute)
		if err != nil || v != "value" {
			t.Fatalf("round %d: %q, %v", i, v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("computed %d times, want 1", calls)
	}
	s := c.Stats()
	if s.MemHits != 2 || s.DiskMisses != 1 {
		t.Fatalf("stats = %+v", s)
	}

	// A fresh instance (cold memory, warm disk) must hit the disk tier.
	c2 := New("test-tiers", cfg)
	v, err := GetOrCompute(c2, k, codec, compute)
	if err != nil || v != "value" || calls != 1 {
		t.Fatalf("disk-tier reuse failed: %q, %v, calls %d", v, err, calls)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("fresh-instance stats = %+v", s)
	}
	// And the decoded value is promoted into memory.
	if _, ok := c2.Get(k); !ok {
		t.Fatal("disk hit not promoted to memory tier")
	}
}

func TestGetOrComputeError(t *testing.T) {
	c := New("test-err", Config{Enabled: true})
	k := KeyOf("k", "err")
	wantErr := fmt.Errorf("boom")
	if _, err := GetOrCompute(c, k, Codec[int]{}, func() (int, error) { return 0, wantErr }); err != wantErr {
		t.Fatalf("err = %v", err)
	}
	// Errors are not cached.
	if _, ok := c.Get(k); ok {
		t.Fatal("error result cached")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New("test-conc", Config{Enabled: true, MaxEntries: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := KeyOf("k", strconv.Itoa(i%100))
				if v, ok := c.Get(k); ok {
					if v.(int) != i%100 {
						t.Errorf("got %v for key %d", v, i%100)
						return
					}
				} else {
					c.Put(k, i%100)
				}
			}
		}(g)
	}
	wg.Wait()
}
