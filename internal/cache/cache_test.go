package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"mpa/internal/obs"
)

// keyOf is a small key: a namespace plus string parts.
func keyOf(namespace string, parts ...string) Key {
	h := NewHasher(namespace)
	for _, p := range parts {
		h.String(p)
	}
	return h.Sum()
}

func TestKeyFraming(t *testing.T) {
	// Length-prefix framing: distinct part splits must not collide.
	a := keyOf("ns", "ab", "c")
	b := keyOf("ns", "a", "bc")
	if a == b {
		t.Fatal("framing collision: (ab,c) == (a,bc)")
	}
	// Namespaces separate key spaces.
	if keyOf("ns1", "x") == keyOf("ns2", "x") {
		t.Fatal("namespace collision")
	}
	// Keys are deterministic.
	if a != keyOf("ns", "ab", "c") {
		t.Fatal("key not deterministic")
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

// TestKeyGolden pins the key bytes: a fixed chain of every part kind
// sums to the digest the length-prefixed framing has always produced, so
// hashing strings in place keeps every key on disk valid.
func TestKeyGolden(t *testing.T) {
	at := time.Date(2014, time.March, 1, 12, 30, 5, 7, time.FixedZone("EST", -5*3600))
	got := NewHasher("practices/v2").String("net-007").String("").Int(-3).Time(at).
		String("hostname r1\n!\nend\n").Sum().Hex()
	const want = "dc242ba9f4bb652448dca9335ed9fde212ea7adf780ada601f074ef9ec4805dd"
	if got != want {
		t.Fatalf("key = %s, want %s", got, want)
	}
}

// intCodec stores ints as decimal text.
var intCodec = Codec[int]{
	Encode: func(v int) ([]byte, error) { return []byte(strconv.Itoa(v)), nil },
	Decode: func(b []byte) (int, error) { return strconv.Atoi(string(b)) },
}

func TestDisabledAndNil(t *testing.T) {
	// Without a Dir there is no tier, whatever the deprecated Enabled says.
	for _, cfg := range []Config{{}, {Enabled: true}} {
		if c := New("stage", cfg); c != nil {
			t.Fatalf("config %+v should yield a nil cache", cfg)
		}
	}
	var c *Cache
	calls := 0
	for i := 0; i < 2; i++ {
		v, err := GetOrCompute(c, Key{}, intCodec, func() (int, error) { calls++; return 7, nil })
		if err != nil || v != 7 || calls != i+1 {
			t.Fatalf("nil GetOrCompute = %d, %v (calls %d)", v, err, calls)
		}
	}
}

func TestDiskTier(t *testing.T) {
	dir := t.TempDir()
	c := New("test-disk", Config{Dir: dir})
	k := keyOf("k", "x")
	if _, ok := c.getBytes(k); ok {
		t.Fatal("hit on empty disk tier")
	}
	c.putBytes(k, []byte("payload"))
	b, ok := c.getBytes(k)
	if !ok || string(b) != "payload" {
		t.Fatalf("disk round trip = %q, %v", b, ok)
	}
	// A second instance over the same dir (fresh process simulation) hits.
	c2 := New("test-disk", Config{Dir: dir})
	if _, ok := c2.getBytes(k); !ok {
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
	v, err := GetOrCompute(New("test-disk", Config{Dir: dir}), k, intCodec,
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
	cfg := Config{Dir: dir}
	codec := Codec[string]{
		Encode: func(s string) ([]byte, error) { return []byte("v1:" + s), nil },
		Decode: func(b []byte) (string, error) {
			if len(b) < 3 || string(b[:3]) != "v1:" {
				return "", fmt.Errorf("bad header")
			}
			return string(b[3:]), nil
		},
	}
	k := keyOf("k", "truncated")
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
	c2 := New("test-corrupt", cfg) // fresh instance, warm (bad) disk tier
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
	cfg := Config{Dir: dir}
	codec := Codec[string]{
		Encode: func(s string) ([]byte, error) { return []byte(s), nil },
		Decode: func(b []byte) (string, error) { return string(b), nil },
	}
	k := keyOf("k", "v")
	calls := 0
	compute := func() (string, error) { calls++; return "value", nil }
	hits := obs.GetCounter("cache.test-tiers.disk_hits")
	misses := obs.GetCounter("cache.test-tiers.disk_misses")
	hits0, misses0 := hits.Value(), misses.Value()

	// Every call reads the disk: the first misses and computes, the rest
	// hit, on this instance and on a fresh one over the same Dir.
	for _, c := range []*Cache{New("test-tiers", cfg), New("test-tiers", cfg), New("test-tiers", cfg)} {
		v, err := GetOrCompute(c, k, codec, compute)
		if err != nil || v != "value" {
			t.Fatalf("GetOrCompute = %q, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("computed %d times, want 1", calls)
	}
	if d := misses.Value() - misses0; d != 1 {
		t.Fatalf("disk misses rose by %d, want 1", d)
	}
	if d := hits.Value() - hits0; d != 2 {
		t.Fatalf("disk hits rose by %d, want 2", d)
	}
}

func TestGetOrComputeError(t *testing.T) {
	dir := t.TempDir()
	c := New("test-err", Config{Dir: dir})
	k := keyOf("k", "err")
	wantErr := fmt.Errorf("boom")
	if _, err := GetOrCompute(c, k, intCodec, func() (int, error) { return 0, wantErr }); err != wantErr {
		t.Fatalf("err = %v", err)
	}
	// Errors are not cached: the next call computes.
	calls := 0
	if v, err := GetOrCompute(c, k, intCodec, func() (int, error) { calls++; return 3, nil }); err != nil || v != 3 || calls != 1 {
		t.Fatalf("after an error GetOrCompute = %d, %v (calls %d)", v, err, calls)
	}
}
