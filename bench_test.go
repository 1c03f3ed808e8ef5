package mpa

// The benchmark harness: one benchmark per table and figure of the paper
// (DESIGN.md §4), plus the ablation benches for the design decisions
// DESIGN.md calls out, plus pipeline-stage benchmarks.
//
// Benchmarks run against a shared mid-scale synthetic OSP so `go test
// -bench=.` finishes in minutes; `mpa -networks 850 -months 17 -id all
// experiment` regenerates every result at the paper's full 850-network
// scale (the recorded output lives in EXPERIMENTS.md).

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"mpa/internal/cache"
	"mpa/internal/ciscoios"
	"mpa/internal/confdiff"
	"mpa/internal/confmodel"
	"mpa/internal/experiments"
	"mpa/internal/ingest"
	"mpa/internal/junos"
	"mpa/internal/months"
	"mpa/internal/netmodel"
	"mpa/internal/nms"
	"mpa/internal/osp"
	"mpa/internal/practices"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

// benchEnvironment lazily builds the shared benchmark OSP: 120 networks
// over 8 months.
func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		p := osp.Small(77)
		p.Networks = 120
		p.Start = months.StudyStart
		p.End = months.StudyStart.Add(7)
		env, err := experiments.NewEnv(p, cache.Config{})
		if err != nil {
			panic(err)
		}
		benchEnv = env
	})
	return benchEnv
}

// benchExperiment runs one registered experiment b.N times, each on a
// memo-less copy of the bench Env (its exported fields, Obs included), so
// every iteration computes the analyses rather than reading the ranking
// and causal runs an earlier iteration memoized.
func benchExperiment(b *testing.B, id string) {
	env := benchEnvironment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := &experiments.Env{Params: env.Params, OSP: env.OSP, Analysis: env.Analysis, Data: env.Data, Obs: env.Obs}
		r, ok := experiments.Run(run, id)
		if !ok || r.Text == "" {
			b.Fatalf("experiment %s failed", id)
		}
	}
}

// Pipeline-stage benchmarks.

// BenchmarkGenerate measures synthetic-OSP generation (inventory, config
// rendering, snapshot archiving, ticket emission).
func BenchmarkGenerate(b *testing.B) {
	p := osp.Small(1)
	p.Networks = 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		osp.Generate(p)
	}
}

// BenchmarkInference measures the practice-metric inference engine
// (parsing every snapshot, diffing, grouping, metric computation).
func BenchmarkInference(b *testing.B) {
	o := osp.Generate(func() osp.Params {
		p := osp.Small(2)
		p.Networks = 20
		return p
	}())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine := practices.NewEngine(o.Inventory, o.Archive)
		if _, err := engine.Analyze(o.Params.Months()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferenceWarmCache is BenchmarkInference on the path a restart
// takes: the disk tier is filled off the timer, then each iteration builds
// a fresh engine over it and analyzes, so every per-network analysis is
// read and decoded from disk. The gap to BenchmarkInference is the disk
// tier's speedup (results are byte-identical either way; see
// TestCacheEquivalence).
func BenchmarkInferenceWarmCache(b *testing.B) {
	o := osp.Generate(func() osp.Params {
		p := osp.Small(2)
		p.Networks = 20
		return p
	}())
	cc := cache.Config{Dir: b.TempDir()}
	analyze := func() {
		engine := practices.NewEngine(o.Inventory, o.Archive)
		engine.SetCache(cc)
		if _, err := engine.Analyze(o.Params.Months()); err != nil {
			b.Fatal(err)
		}
	}
	analyze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyze()
	}
}

// Per-stage microbenchmarks: parse one snapshot and diff one snapshot
// pair, per dialect, through the same scratch-reusing path the inference
// engine runs. They localize an allocation regression to a stage that the
// end-to-end BenchmarkInference number can only hint at.

var (
	benchSnapOnce sync.Once
	benchSnapOut  *osp.OSP
)

// benchSnapshotHistory returns the snapshot history of the first device
// of the given vendor with at least two snapshots in a shared small OSP.
func benchSnapshotHistory(b *testing.B, vendor netmodel.Vendor) []*nms.Snapshot {
	b.Helper()
	benchSnapOnce.Do(func() {
		p := osp.Small(2)
		p.Networks = 20
		benchSnapOut = osp.Generate(p)
	})
	for _, nw := range benchSnapOut.Inventory.Networks {
		for _, dev := range nw.Devices {
			if dev.Vendor != vendor {
				continue
			}
			if hist := benchSnapOut.Archive.Snapshots(dev.Name); len(hist) >= 2 {
				return hist
			}
		}
	}
	b.Fatalf("no %v device with two snapshots", vendor)
	return nil
}

// benchSnapshotPair returns the first and last snapshot texts of
// benchSnapshotHistory's device — a realistic drifted same-device pair.
func benchSnapshotPair(b *testing.B, vendor netmodel.Vendor) (oldText, newText string) {
	hist := benchSnapshotHistory(b, vendor)
	return hist[0].Text, hist[len(hist)-1].Text
}

func benchParseSnapshot(b *testing.B, d confmodel.ScratchParser, vendor netmodel.Vendor) {
	_, text := benchSnapshotPair(b, vendor)
	sc := confmodel.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ParseScratch(text, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchParseNext parses the device's last snapshot as the successor of
// its second-to-last, the step the inference engine takes on every
// snapshot after a device's first: only the changed blocks are parsed.
func benchParseNext(b *testing.B, d confmodel.ScratchParser, vendor netmodel.Vendor) {
	hist := benchSnapshotHistory(b, vendor)
	sc := confmodel.NewScratch()
	prev, err := d.ParseScratch(hist[len(hist)-2].Text, sc)
	if err != nil {
		b.Fatal(err)
	}
	text := hist[len(hist)-1].Text
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ParseNext(prev, text, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDiffPair(b *testing.B, d confmodel.ScratchParser, vendor netmodel.Vendor) {
	oldText, newText := benchSnapshotPair(b, vendor)
	sc := confmodel.NewScratch()
	oldCfg, err := d.ParseScratch(oldText, sc)
	if err != nil {
		b.Fatal(err)
	}
	newCfg, err := d.ParseScratch(newText, sc)
	if err != nil {
		b.Fatal(err)
	}
	var buf []confdiff.StanzaChange
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = confdiff.AppendDiff(buf[:0], oldCfg, newCfg)
	}
}

func BenchmarkParseSnapshotCisco(b *testing.B) {
	benchParseSnapshot(b, ciscoios.Dialect{}, netmodel.VendorCisco)
}

func BenchmarkParseSnapshotJunos(b *testing.B) {
	benchParseSnapshot(b, junos.Dialect{}, netmodel.VendorJuniper)
}

func BenchmarkParseNextCisco(b *testing.B) {
	benchParseNext(b, ciscoios.Dialect{}, netmodel.VendorCisco)
}

func BenchmarkParseNextJunos(b *testing.B) {
	benchParseNext(b, junos.Dialect{}, netmodel.VendorJuniper)
}

func BenchmarkDiffPairCisco(b *testing.B) {
	benchDiffPair(b, ciscoios.Dialect{}, netmodel.VendorCisco)
}

func BenchmarkDiffPairJunos(b *testing.B) {
	benchDiffPair(b, junos.Dialect{}, netmodel.VendorJuniper)
}

// Table and figure benchmarks, in paper order.

func BenchmarkFigure2(b *testing.B)   { benchExperiment(b, "figure2") }
func BenchmarkFigure3(b *testing.B)   { benchExperiment(b, "figure3") }
func BenchmarkFigure4(b *testing.B)   { benchExperiment(b, "figure4") }
func BenchmarkFigure5(b *testing.B)   { benchExperiment(b, "figure5") }
func BenchmarkTable2(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkFigure6(b *testing.B)   { benchExperiment(b, "figure6") }
func BenchmarkTable3(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)    { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)    { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)    { benchExperiment(b, "table7") }
func BenchmarkTable8(b *testing.B)    { benchExperiment(b, "table8") }
func BenchmarkSection61(b *testing.B) { benchExperiment(b, "section61") }
func BenchmarkFigure8(b *testing.B)   { benchExperiment(b, "figure8") }
func BenchmarkFigure9(b *testing.B)   { benchExperiment(b, "figure9") }
func BenchmarkFigure10(b *testing.B)  { benchExperiment(b, "figure10") }
func BenchmarkTable9(b *testing.B)    { benchExperiment(b, "table9") }
func BenchmarkFigure11(b *testing.B)  { benchExperiment(b, "figure11") }
func BenchmarkFigure12(b *testing.B)  { benchExperiment(b, "figure12") }
func BenchmarkFigure13(b *testing.B)  { benchExperiment(b, "figure13") }

// Ablation benchmarks (DESIGN.md §7).

func BenchmarkAblationBinning(b *testing.B)  { benchExperiment(b, "ablation-binning") }
func BenchmarkAblationMatching(b *testing.B) { benchExperiment(b, "ablation-matching") }
func BenchmarkAblationLearners(b *testing.B) { benchExperiment(b, "ablation-learners") }
func BenchmarkAblationGrouping(b *testing.B) { benchExperiment(b, "ablation-grouping") }

// BenchmarkIngestDecode measures decoding one month's update body, the
// step BenchmarkIngestMonth leaves out: the body perfbench's cold_start
// workload posts (seed 77, 60 networks, the month after an eight-month
// window; ~9.3 MB, nearly all of it escaped config text).
func BenchmarkIngestDecode(b *testing.B) {
	p := osp.Small(77)
	p.Networks = 60
	p.End = p.Start.Add(8)
	o := osp.Generate(p)
	body, err := json.Marshal(ingest.SliceMonth(o.Archive, o.Tickets, p.End))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ingest.Decode(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestMonth measures splicing one new month into a warm
// 20-network framework — the steady-state cost of `mpa watch`, against
// BenchmarkInference's full rebuild of the same organization. Each
// iteration ingests into a fresh framework built off the timer, so every
// timed ingest meets a month the framework has never seen, as each month
// of a real stream is: the timed region is exactly validate →
// copy-on-write splice → incremental inference → dataset rebuild → atomic
// swap → query invalidation.
func BenchmarkIngestMonth(b *testing.B) {
	p := osp.Small(2)
	p.Networks = 20
	p.End = p.End.Next() // one month beyond BenchmarkInference's window
	o := osp.Generate(p)
	last := p.End
	arch, log := ingest.Truncate(o.Archive, o.Tickets, last.Add(-1))
	u := ingest.SliceMonth(o.Archive, o.Tickets, last)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f, err := New(o.Inventory, arch, log, p.Start, last.Add(-1))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := f.Ingest(u); err != nil {
			b.Fatal(err)
		}
	}
}
