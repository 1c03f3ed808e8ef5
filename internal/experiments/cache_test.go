package experiments

import (
	"testing"

	"mpa/internal/cache"
	"mpa/internal/obs"
	"mpa/internal/osp"
)

// TestCacheEquivalence is the cache's correctness contract: a run with
// caching disabled, a cold cached run, and a warm cached run over the same
// on-disk tier must produce byte-identical experiment reports — at one
// worker and at eight. It also asserts the warm run actually served
// per-network inference from the disk tier rather than recomputing.
func TestCacheEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds six full envs")
	}
	p := osp.Small(33)
	p.Networks = 12
	for _, workers := range []int{1, 8} {
		setWorkers(t, workers)
		dir := t.TempDir()
		cc := cache.Config{Enabled: true, Dir: dir}

		plain, err := NewEnv(p, cache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := NewEnv(p, cc)
		if err != nil {
			t.Fatal(err)
		}
		before := obs.GetCounter("cache.practices.disk_hits").Value()
		warm, err := NewEnv(p, cc)
		if err != nil {
			t.Fatal(err)
		}
		hits := obs.GetCounter("cache.practices.disk_hits").Value() - before
		if hits < int64(p.Networks) {
			t.Errorf("workers=%d: warm run took %d per-network disk hits, want >= %d",
				workers, hits, p.Networks)
		}

		base := RunAll(plain, nil)
		for name, env := range map[string]*Env{"cold": cold, "warm": warm} {
			got := RunAll(env, nil)
			if len(got) != len(base) {
				t.Fatalf("workers=%d %s: %d results, want %d", workers, name, len(got), len(base))
			}
			for i, w := range base {
				g := got[i]
				if g.ID != w.ID || g.OK != w.OK {
					t.Fatalf("workers=%d %s: result[%d] = (%s, %v), want (%s, %v)",
						workers, name, i, g.ID, g.OK, w.ID, w.OK)
				}
				if g.Report.Text != w.Report.Text {
					t.Errorf("workers=%d %s: %s Text differs from uncached run", workers, name, w.ID)
				}
				if len(g.Report.Numbers) != len(w.Report.Numbers) {
					t.Errorf("workers=%d %s: %s has %d numbers, want %d",
						workers, name, w.ID, len(g.Report.Numbers), len(w.Report.Numbers))
					continue
				}
				for k, wv := range w.Report.Numbers {
					if gv, ok := g.Report.Numbers[k]; !ok || gv != wv {
						t.Errorf("workers=%d %s: %s Numbers[%q] = %v, want %v",
							workers, name, w.ID, k, gv, wv)
					}
				}
			}
		}
	}
}
