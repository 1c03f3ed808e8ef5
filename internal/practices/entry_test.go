package practices

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mpa/internal/cache"
	"mpa/internal/confmodel"
	"mpa/internal/months"
	"mpa/internal/obs"
	"mpa/internal/osp"
	"mpa/internal/par"
)

// monthAnalysisCodec encodes rows as the rows section of a disk entry
// (entry.go): the canonical bytes tests compare rows by.
var monthAnalysisCodec = cache.Codec[[]MonthAnalysis]{
	Encode: func(rows []MonthAnalysis) ([]byte, error) {
		w := newEntryWriter()
		w.rows(rows)
		return w.b, w.err
	},
}

// TestDiskFactsEquivalence pins what a restart reads back from the disk
// tier: an engine answered entirely by entries another engine wrote
// parses nothing, and returns the same rows and holds the same
// window-end facts as the walk that computed them, field for field,
// each bound to the very snapshot the walk ended on. It checks the whole
// window and one ending before the archive does, at 1 and 8 workers.
func TestDiskFactsEquivalence(t *testing.T) {
	p := osp.Small(12)
	p.Networks = 8
	o := osp.Generate(p)
	all := p.Months()
	hits := obs.GetCounter("cache.practices.disk_hits")
	parsed := obs.GetCounter("inference.snapshots_parsed")
	defer par.SetWorkers(par.Workers())
	for _, w := range []int{1, 8} {
		par.SetWorkers(w)
		for _, window := range [][]months.Month{all, all[1:3]} {
			cc := cache.Config{Dir: t.TempDir()}
			walker := NewEngine(o.Inventory, o.Archive)
			walker.SetCache(cc)
			want, err := walker.Analyze(window)
			if err != nil {
				t.Fatal(err)
			}
			reader := NewEngine(o.Inventory, o.Archive)
			reader.SetCache(cc)
			h, p := hits.Value(), parsed.Value()
			got, err := reader.Analyze(window)
			if err != nil {
				t.Fatal(err)
			}
			if n := hits.Value() - h; n != int64(len(o.Inventory.Networks)) {
				t.Fatalf("workers=%d %v: %d disk hits, want %d", w, window, n, len(o.Inventory.Networks))
			}
			if n := parsed.Value() - p; n != 0 {
				t.Fatalf("workers=%d %v: reading the disk tier back parsed %d snapshots", w, window, n)
			}
			wantFacts, gotFacts := walker.Facts(), reader.Facts()
			if len(gotFacts) != len(wantFacts) || len(wantFacts) != len(o.Inventory.Networks) {
				t.Fatalf("workers=%d %v: facts of %d networks read back, %d walked", w, window, len(gotFacts), len(wantFacts))
			}
			for _, nw := range o.Inventory.Networks {
				wb, _ := monthAnalysisCodec.Encode(want[nw.Name])
				gb, _ := monthAnalysisCodec.Encode(got[nw.Name])
				if !bytes.Equal(wb, gb) {
					t.Errorf("workers=%d %v: %s rows differ", w, window, nw.Name)
				}
				we, ge := wantFacts[nw.Name], gotFacts[nw.Name]
				if len(ge) != len(we) {
					t.Fatalf("workers=%d %v: %s: %d device ends, want %d", w, window, nw.Name, len(ge), len(we))
				}
				for i := range we {
					if ge[i].snap != we[i].snap {
						t.Errorf("workers=%d %v: %s device %d bound to another snapshot", w, window, nw.Name, i)
					}
					if !reflect.DeepEqual(ge[i].facts, we[i].facts) {
						t.Errorf("workers=%d %v: %s device %d facts differ:\n got %+v\nwant %+v", w, window, nw.Name, i, ge[i].facts, we[i].facts)
					}
				}
			}
		}
	}
}

// entryFixture is one network's walk over a small organization's window,
// computed by an engine with a disk tier whose only entry is that walk's.
type entryFixture struct {
	e      *Engine
	name   string
	window []months.Month
	ref    walked
	key    cache.Key
	path   string // the entry's file
}

func newEntryFixture(tb testing.TB, dir string) *entryFixture {
	p := osp.Small(5)
	p.Networks = 2
	p.End = p.Start
	o := osp.Generate(p)
	fx := &entryFixture{e: NewEngine(o.Inventory, o.Archive), name: o.Inventory.Networks[0].Name, window: p.Months()}
	fx.e.SetCache(cache.Config{Dir: dir})
	fx.key = fx.e.networkKey(fx.e.inv.Network(fx.name), fx.window)
	var err error
	if fx.ref, err = fx.walk(); err != nil {
		tb.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*", "*", "*"))
	if err != nil || len(files) != 1 {
		tb.Fatalf("disk tier holds %v (%v), want one entry", files, err)
	}
	fx.path = files[0]
	return fx
}

func (fx *entryFixture) walk() (walked, error) {
	return fx.e.analyzeNetwork(fx.name, fx.window, nil, newNetScratch(), nil)
}

func (fx *entryFixture) codec() cache.Codec[walked] {
	return entryCodec(fx.e.windowEnds(fx.e.inv.Network(fx.name), fx.window))
}

// edgeValues returns the walk with a row carrying NaN and ±Inf metrics
// and a change at a non-UTC time whose types are out of order.
func edgeValues(w walked) walked {
	rows := append([]MonthAnalysis(nil), w.rows...)
	ma := rows[0]
	ma.Metrics = Metrics{}
	for k, v := range rows[0].Metrics {
		ma.Metrics[k] = v
	}
	ma.Metrics[MetricAvgBGPSize] = math.NaN()
	ma.Metrics[MetricAvgOSPFSize] = math.Inf(1)
	ma.Metrics[MetricInterComplexity] = math.Inf(-1)
	at := ma.Month.Start().Add(36*time.Hour + 7).In(time.FixedZone("", 5*3600+30*60))
	ma.Changes = append(append([]ChangeDetail(nil), ma.Changes...), ChangeDetail{
		Device: "edge-dev", Time: at, Automated: true, Middlebox: true,
		Types: []confmodel.Type{confmodel.TypeOSPF, confmodel.TypeACL, confmodel.TypeInterface},
	})
	rows[0] = ma
	return walked{rows: rows, ends: w.ends}
}

// TestNetworkEntryExact pins that decoding returns what was encoded:
// floats keep their bits, times their instant and offset, types their
// order, and a written entry re-encodes to the same bytes.
func TestNetworkEntryExact(t *testing.T) {
	fx := newEntryFixture(t, t.TempDir())
	codec := fx.codec()
	in := edgeValues(fx.ref)
	b, err := codec.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := codec.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	again, err := codec.Encode(out)
	if err != nil || !bytes.Equal(again, b) {
		t.Fatalf("re-encoding a decoded entry gives other bytes (%v)", err)
	}
	for k, v := range in.rows[0].Metrics {
		if got := out.rows[0].Metrics[k]; math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("metric %s = %v, want %v", k, got, v)
		}
	}
	ch := in.rows[0].Changes
	want, got := ch[len(ch)-1], out.rows[0].Changes[len(ch)-1]
	_, wantOff := want.Time.Zone()
	_, gotOff := got.Time.Zone()
	if !got.Time.Equal(want.Time) || gotOff != wantOff {
		t.Errorf("change time %v, want %v", got.Time, want.Time)
	}
	if !reflect.DeepEqual(got.Types, want.Types) || got.Device != want.Device || got.Automated != want.Automated || got.Middlebox != want.Middlebox {
		t.Errorf("change %+v, want %+v", got, want)
	}
	// UTC times stay UTC, which JSON-encoded rows tell apart.
	for i, r := range fx.ref.rows {
		for j, c := range r.Changes {
			if out.rows[i].Changes[j].Time.Location() != c.Time.Location() {
				t.Fatalf("row %d change %d: location %v, want %v", i, j, out.rows[i].Changes[j].Time.Location(), c.Time.Location())
			}
		}
	}
	disk, err := os.ReadFile(fx.path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := codec.Encode(fx.ref)
	if err != nil || !bytes.Equal(disk, ref) {
		t.Fatalf("the entry on disk is not the walk's encoding (%v)", err)
	}
}

// TestCorruptEntryRewalked pins the engine's answer to an entry that
// does not decode (truncated, with trailing bytes, or of another
// network): it counts a corrupt entry, walks the network again, and
// returns and stores what the walk returns.
func TestCorruptEntryRewalked(t *testing.T) {
	fx := newEntryFixture(t, t.TempDir())
	want, err := encodeEntry(fx.ref)
	if err != nil {
		t.Fatal(err)
	}
	other := edgeValues(fx.ref)
	other.ends = other.ends[1:]
	foreign, err := encodeEntry(other)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := obs.GetCounter("cache.practices.disk_corrupt")
	parsed := obs.GetCounter("inference.snapshots_parsed")
	for _, bad := range [][]byte{want[:len(want)-1], append(want[:len(want):len(want)], 0), foreign} {
		if err := os.WriteFile(fx.path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		c, p := corrupt.Value(), parsed.Value()
		got, err := fx.walk()
		if err != nil {
			t.Fatal(err)
		}
		if corrupt.Value() != c+1 || parsed.Value() == p {
			t.Fatalf("corrupt entries %d, snapshots parsed %d; want 1 and the walk's", corrupt.Value()-c, parsed.Value()-p)
		}
		gb, err := encodeEntry(got)
		if err != nil || !bytes.Equal(gb, want) {
			t.Fatalf("the walk after a corrupt entry returned another entry (%v)", err)
		}
		if disk, err := os.ReadFile(fx.path); err != nil || !bytes.Equal(disk, want) {
			t.Fatalf("the corrupt entry was not replaced (%v)", err)
		}
	}
}

// FuzzNetworkEntry feeds arbitrary bytes to the entry decoder: they
// decode or are an error, never a panic; what decodes re-encodes to an
// entry that decodes and re-encodes to itself; and bytes that do not
// decode, found on disk in the entry's place, are counted as a corrupt
// entry and recomputed. (The walk behind the entry is computed once;
// TestCorruptEntryRewalked runs it after a corrupt read.)
func FuzzNetworkEntry(f *testing.F) {
	fx := newEntryFixture(f, f.TempDir())
	codec := fx.codec()
	want, err := codec.Encode(fx.ref)
	if err != nil {
		f.Fatal(err)
	}
	edge, err := codec.Encode(edgeValues(fx.ref))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(want)
	f.Add(edge)
	f.Add(want[:len(want)/2])
	f.Add([]byte{})
	corrupt := obs.GetCounter("cache.practices.disk_corrupt")
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := codec.Decode(b)
		if err == nil {
			b1, err := codec.Encode(v)
			if err != nil {
				t.Fatalf("encoding a decoded entry: %v", err)
			}
			v1, err := codec.Decode(b1)
			if err != nil {
				t.Fatalf("decoding a re-encoded entry: %v", err)
			}
			if b2, err := codec.Encode(v1); err != nil || !bytes.Equal(b1, b2) {
				t.Fatalf("a re-encoded entry does not re-encode to itself (%v)", err)
			}
			return
		}
		// The engine's disk tier, finding b in the entry's place, counts
		// a corrupt entry and computes the walk again (here: hands back
		// the one computed before), which replaces b on disk.
		if err := os.WriteFile(fx.path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		before := corrupt.Value()
		computed := false
		if _, err := cache.GetOrCompute(fx.e.netCache, fx.key, codec, func() (walked, error) {
			computed = true
			return fx.ref, nil
		}); err != nil {
			t.Fatal(err)
		}
		if n := corrupt.Value() - before; n != 1 || !computed {
			t.Fatalf("a bad entry counted %d times as corrupt, recomputed %v; want 1, true", n, computed)
		}
		if disk, err := os.ReadFile(fx.path); err != nil || !bytes.Equal(disk, want) {
			t.Fatalf("a bad entry was not replaced by the walk's (%v)", err)
		}
	})
}
