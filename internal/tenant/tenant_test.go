package tenant_test

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mpa"
	"mpa/internal/tenant"
)

func TestValidName(t *testing.T) {
	for _, ok := range []string{"acme", "a", "org-2", "x9", "globex-east-1"} {
		if !tenant.ValidName(ok) {
			t.Errorf("ValidName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{
		"", "Acme", "a_b", "-lead", "has space", "fleet", "orgs", "debug",
		"metrics", "healthz", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", // 33 chars
	} {
		if tenant.ValidName(bad) {
			t.Errorf("ValidName(%q) = true, want false", bad)
		}
	}
}

func TestParseOrgs(t *testing.T) {
	specs, err := tenant.ParseOrgs("acme=1,globex=2:8,initech=3:12:4")
	if err != nil {
		t.Fatal(err)
	}
	want := []tenant.OrgSpec{
		{Name: "acme", Seed: 1},
		{Name: "globex", Seed: 2, Networks: 8},
		{Name: "initech", Seed: 3, Networks: 12, Months: 4},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Fatalf("ParseOrgs = %+v, want %+v", specs, want)
	}

	for _, bad := range []string{
		"", "acme", "acme=x", "acme=1,acme=2", "Acme=1", "fleet=1",
		"acme=1:0", "acme=1:8:0", "acme=1:8:2:9",
	} {
		if _, err := tenant.ParseOrgs(bad); err == nil {
			t.Errorf("ParseOrgs(%q) succeeded, want error", bad)
		}
	}
}

func TestReadConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "orgs.json")
	if err := os.WriteFile(path, []byte(`{"orgs":[
		{"name":"acme","seed":1,"networks":8,"months":2},
		{"name":"globex","seed":2}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	specs, err := tenant.ReadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []tenant.OrgSpec{
		{Name: "acme", Seed: 1, Networks: 8, Months: 2},
		{Name: "globex", Seed: 2},
	}
	if !reflect.DeepEqual(specs, want) {
		t.Fatalf("ReadConfig = %+v, want %+v", specs, want)
	}

	for name, body := range map[string]string{
		"unknown-field": `{"orgs":[{"name":"a","seed":1,"sharding":9}]}`,
		"no-orgs":       `{"orgs":[]}`,
		"bad-name":      `{"orgs":[{"name":"Fleet","seed":1}]}`,
		"dup":           `{"orgs":[{"name":"a","seed":1},{"name":"a","seed":2}]}`,
	} {
		p := filepath.Join(dir, name+".json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := tenant.ReadConfig(p); err == nil {
			t.Errorf("%s: ReadConfig succeeded, want error", name)
		}
	}
	if _, err := tenant.ReadConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("ReadConfig(missing) succeeded, want error")
	}
}

// loadRegistry builds a tiny 2-org fleet once for the merge tests.
func loadRegistry(t *testing.T) *tenant.Registry {
	t.Helper()
	base := mpa.SmallConfig(1)
	base.Networks = 6
	specs, err := tenant.ParseOrgs("globex=2:6:2,acme=1:8:2")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.Load(specs, base)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestLoadRegistry(t *testing.T) {
	reg := loadRegistry(t)
	if got, want := reg.Names(), []string{"acme", "globex"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want sorted %v", got, want)
	}
	acme, globex := reg.Orgs()[0], reg.Orgs()[1]
	if acme.Name != "acme" || globex.Name != "globex" {
		t.Fatalf("Orgs() = %s, %s, want acme, globex", acme.Name, globex.Name)
	}
	if n := len(acme.F.Dataset().Networks()); n != 8 {
		t.Errorf("acme networks = %d, want the spec override 8", n)
	}
	if n := len(globex.F.Dataset().Networks()); n != 6 {
		t.Errorf("globex networks = %d, want 6", n)
	}
	if w := acme.F.Window(); len(w) != 2 {
		t.Errorf("acme window = %d months, want the spec override 2", len(w))
	}
	if reg.Len() != 2 {
		t.Errorf("Len = %d", reg.Len())
	}
}

func TestMergeRank(t *testing.T) {
	reg := loadRegistry(t)
	var parts []tenant.RankPartial
	for _, o := range reg.Orgs() {
		parts = append(parts, tenant.RankPartialOf(o))
	}
	merged, err := tenant.MergeRank(parts)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Orgs != 2 {
		t.Errorf("Orgs = %d, want 2", merged.Orgs)
	}
	if want := parts[0].Cases + parts[1].Cases; merged.Cases != want {
		t.Errorf("Cases = %d, want %d", merged.Cases, want)
	}
	if len(merged.Entries) != len(mpa.MetricNames) {
		t.Fatalf("merged %d metrics, want %d", len(merged.Entries), len(mpa.MetricNames))
	}
	for i, e := range merged.Entries {
		if e.Rank != i+1 {
			t.Errorf("entry %d has rank %d", i, e.Rank)
		}
		if e.Orgs != 2 {
			t.Errorf("metric %s reported by %d orgs, want 2", e.Metric, e.Orgs)
		}
		if i > 0 && e.MI > merged.Entries[i-1].MI {
			t.Errorf("not descending at %d: %v > %v", i, e.MI, merged.Entries[i-1].MI)
		}
		if e.DisplayName == "" || e.Category == "" {
			t.Errorf("entry %d incomplete: %+v", i, e)
		}
	}

	// The merge is the case-weighted mean: check one metric by hand.
	metric := merged.Entries[0].Metric
	var want float64
	var weight float64
	for _, p := range parts {
		for _, e := range p.Rank {
			if e.Metric == metric {
				want += float64(p.Cases) * e.MI
				weight += float64(p.Cases)
			}
		}
	}
	want /= weight
	if got := merged.Entries[0].MI; math.Abs(got-want) > 1e-12 {
		t.Errorf("weighted MI for %s = %v, want %v", metric, got, want)
	}

	// Partial order must not matter (map-reduce reassociativity).
	swapped, err := tenant.MergeRank([]tenant.RankPartial{parts[1], parts[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, swapped) {
		t.Error("MergeRank depends on partial order")
	}

	if _, err := tenant.MergeRank(nil); err == nil {
		t.Error("MergeRank(nil) succeeded, want error")
	}
}

func TestMergeHealth(t *testing.T) {
	reg := loadRegistry(t)
	var parts []tenant.HealthPartial
	for _, o := range reg.Orgs() {
		parts = append(parts, tenant.HealthPartialOf(o))
	}
	merged, err := tenant.MergeHealth([]tenant.HealthPartial{parts[1], parts[0]})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Status != "ok" {
		t.Errorf("status = %q", merged.Status)
	}
	if merged.Totals.Orgs != 2 || merged.Totals.Networks != 14 {
		t.Errorf("totals = %+v, want 2 orgs over 14 networks", merged.Totals)
	}
	if got, want := merged.Totals.Cases, parts[0].Cases+parts[1].Cases; got != want {
		t.Errorf("total cases = %d, want %d", got, want)
	}
	if len(merged.Orgs) != 2 || merged.Orgs[0].Org != "acme" || merged.Orgs[1].Org != "globex" {
		t.Errorf("org rows not name-sorted: %+v", merged.Orgs)
	}
	if merged.Totals.WindowStart != parts[0].WindowStart || merged.Totals.WindowEnd != parts[0].WindowEnd {
		t.Errorf("fleet window = %s..%s, want the orgs' shared window %s..%s",
			merged.Totals.WindowStart, merged.Totals.WindowEnd, parts[0].WindowStart, parts[0].WindowEnd)
	}

	if _, err := tenant.MergeHealth(nil); err == nil {
		t.Error("MergeHealth(nil) succeeded, want error")
	}
}

// TestPartialsReadOneSnapshot pins that each partial is read from one
// environment snapshot while ingests of the next months land
// concurrently: every HealthPartialOf has as many cases as networks ×
// months, and every RankPartialOf pairs a ranking with its own
// snapshot's case count — the pre- or the post-ingest one.
func TestPartialsReadOneSnapshot(t *testing.T) {
	base := mpa.SmallConfig(1)
	specs, err := tenant.ParseOrgs("acme=1:8:3")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.Load(specs, base)
	if err != nil {
		t.Fatal(err)
	}
	o := reg.Orgs()[0]
	ups, err := mpa.NextMonths(o.Cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range ups {
		pre := tenant.RankPartialOf(o)
		var (
			wg     sync.WaitGroup
			done   atomic.Bool
			mu     sync.Mutex
			ranks  []tenant.RankPartial
			health []tenant.HealthPartial
		)
		for i := 0; i < 2; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for !done.Load() {
					p := tenant.RankPartialOf(o)
					mu.Lock()
					ranks = append(ranks, p)
					mu.Unlock()
				}
			}()
			go func() {
				defer wg.Done()
				for !done.Load() {
					p := tenant.HealthPartialOf(o)
					mu.Lock()
					health = append(health, p)
					mu.Unlock()
				}
			}()
		}
		_, err := o.F.Ingest(u)
		done.Store(true)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		post := tenant.RankPartialOf(o)
		if post.Cases == pre.Cases {
			t.Fatalf("ingest of %s left %d cases", u.Month, post.Cases)
		}
		for _, p := range health {
			if p.Cases != p.Networks*p.Months {
				t.Errorf("%s: health partial %d cases over %d networks × %d months", u.Month, p.Cases, p.Networks, p.Months)
			}
		}
		for _, p := range ranks {
			if !reflect.DeepEqual(p, pre) && !reflect.DeepEqual(p, post) {
				t.Errorf("%s: rank partial over %d cases matches neither snapshot (%d or %d cases)", u.Month, p.Cases, pre.Cases, post.Cases)
			}
		}
	}
}
