package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"mpa"
	"mpa/internal/ciscoios"
	"mpa/internal/confdiff"
	"mpa/internal/confmodel"
	"mpa/internal/dataset"
	"mpa/internal/experiments"
	"mpa/internal/ingest"
	"mpa/internal/junos"
	"mpa/internal/months"
	"mpa/internal/netmodel"
	"mpa/internal/osp"
	"mpa/internal/practices"
	"mpa/internal/qed"
	"mpa/internal/serve"
	"mpa/internal/tenant"
)

// layerMetrics are the per-layer metrics every workload reports with
// -trace 1. A layer the workload's timed phase did not call (by the
// program's own stage and counter records) reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"practices.analyze_s", "s"},
	{"practices.snapshots", "count"},
	{"ciscoios.parse_ms", "ms"},
	{"junos.parse_ms", "ms"},
	{"confdiff.diff_ms", "ms"},
	{"confdiff.pairs", "count"},
	{"cache.mem_hit_ratio", "ratio"},
	{"cache.disk_hit_ratio", "ratio"},
	{"cache.disk_mb", "MB"},
	{"dataset.build_ms", "ms"},
	{"dataset.cases", "count"},
	{"experiments.mi_rank_ms", "ms"},
	{"experiments.report_ms.table3", "ms"},
	{"experiments.report_ms.table7", "ms"},
	{"experiments.report_ms.table8", "ms"},
	{"experiments.report_ms.figure8", "ms"},
	{"experiments.report_ms.table9", "ms"},
	{"qed.run_ms", "ms"},
	{"qed.pairs", "count"},
	{"ml.train_two_ms", "ms"},
	{"ml.train_five_ms", "ms"},
	{"mpa.memo_hit_us", "us"},
	{"mpa.memo_hit_ratio", "ratio"},
	{"mpa.refresh_overlap", "ratio"},
	{"mpa.ingest_ms", "ms"},
	{"mpa.ingest_self_ms", "ms"},
	{"ingest.decode_ms", "ms"},
	{"ingest.compile_ms", "ms"},
	{"nms.clone_ms", "ms"},
	{"practices.analyze_month_ms", "ms"},
	{"ingest.networks", "count"},
	{"serve.handler_us_p50", "us"},
	{"serve.handler_us_p99", "us"},
	{"serve.response_bytes", "bytes"},
	{"tenant.merge_rank_us", "us"},
	{"net.transport_us", "us"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// layers times each module's public entry points directly, on the
// workload's own data, and reports them alongside what the traced phase
// recorded. Each replay names the call it times in exactly one place.
// g is the workload's (first) org, cacheDir its disk tier ("" for none),
// d the daemon after the phase, warm the workload's steady read sequence.
func (r *run) layers(g *org, cacheDir string, d *daemon, ph *phase, warm []*request) error {
	t := r.tr
	root := t.begin("layers", 0, "")
	defer t.end(root)
	ran := func(stage string) bool { return ph.stages[stage] > 0 }
	gate := func(on bool, v float64) float64 {
		if on {
			return v
		}
		return 0
	}
	window := months.Range(g.start, g.end)
	cc := mpa.CacheConfig{Enabled: true}
	if cacheDir != "" {
		cc.Dir = filepath.Join(cacheDir, "orgs", g.name)
	}

	// practices: Engine.Analyze on a fresh engine (disk-warm on restart).
	var analysis map[string][]practices.MonthAnalysis
	engine := practices.NewEngine(g.inv, g.arch)
	engine.SetCache(cc)
	var err error
	runtime.GC()
	dur := t.time("practices.Engine.Analyze", root, func() { analysis, err = engine.Analyze(window) })
	if err != nil {
		return err
	}
	r.set("practices.analyze_s", "s", gate(ran("inference"), dur.Seconds()))
	r.set("practices.snapshots", "count", gate(ran("inference"), float64(g.arch.SnapshotCount())))

	// ciscoios, junos, confdiff: ParseScratch over every archived
	// snapshot and AppendDiff over each device's consecutive pairs.
	parseDur := map[netmodel.Vendor]time.Duration{}
	var diffDur time.Duration
	pairs := 0
	parseID := t.begin("parse+diff", root, "")
	for _, nw := range g.inv.Networks {
		for _, dev := range nw.Devices {
			var dialect confmodel.ScratchParser = ciscoios.Dialect{}
			if dev.Vendor == netmodel.VendorJuniper {
				dialect = junos.Dialect{}
			}
			sc := confmodel.NewScratch()
			var prev *confmodel.Config
			var buf []confdiff.StanzaChange
			for _, s := range g.arch.Snapshots(dev.Name) {
				t0 := time.Now()
				cfg, err := dialect.ParseScratch(s.Text, sc)
				parseDur[dev.Vendor] += time.Since(t0)
				if err != nil {
					return fmt.Errorf("parse %s: %w", dev.Name, err)
				}
				if prev != nil {
					t0 = time.Now()
					buf = confdiff.AppendDiff(buf[:0], prev, cfg)
					diffDur += time.Since(t0)
					pairs++
				}
				prev = cfg
			}
		}
	}
	t.end(parseID)
	parsed := ph.counters["inference.snapshots_parsed"] > 0
	diffed := ph.counters["inference.diffs"] > 0
	r.set("ciscoios.parse_ms", "ms", gate(parsed, ms(parseDur[netmodel.VendorCisco])))
	r.set("junos.parse_ms", "ms", gate(parsed, ms(parseDur[netmodel.VendorJuniper])))
	r.set("confdiff.diff_ms", "ms", gate(diffed, ms(diffDur)))
	r.set("confdiff.pairs", "count", gate(diffed, float64(pairs)))

	// cache: the program's pipeline-cache counters over the phase.
	var memH, memM, diskH, diskM int64
	for _, st := range []string{"parse", "confdiff", "practices", "dataset"} {
		memH += ph.counters["cache."+st+".mem_hits"]
		memM += ph.counters["cache."+st+".mem_misses"]
		diskH += ph.counters["cache."+st+".disk_hits"]
		diskM += ph.counters["cache."+st+".disk_misses"]
	}
	r.set("cache.mem_hit_ratio", "ratio", ratio(memH, memM))
	r.set("cache.disk_hit_ratio", "ratio", ratio(diskH, diskM))
	r.set("cache.disk_mb", "MB", dirMB(cacheDir))

	// dataset: dataset.Build over the analysis.
	var data *dataset.Dataset
	runtime.GC()
	buildDur := t.time("dataset.Build", root, func() { data = dataset.Build(analysis, g.log) })
	built := ran("dataset.build") || ran("ingest")
	r.set("dataset.build_ms", "ms", gate(built, ms(buildDur)))
	r.set("dataset.cases", "count", gate(built, float64(data.Len())))

	// experiments: MIRanking and experiments.Run on an Env assembled
	// exactly as mpa.NewCached assembles the daemon's.
	params := osp.Params{Start: g.start, End: g.end}
	env := &experiments.Env{
		Params:   params,
		OSP:      &osp.OSP{Params: params, Inventory: g.inv, Archive: g.arch, Tickets: g.log},
		Analysis: analysis,
		Data:     data,
	}
	var ranking []experiments.MIEntry
	runtime.GC()
	dur = t.time("experiments.MIRanking", root, func() { ranking = experiments.MIRanking(env) })
	r.set("experiments.mi_rank_ms", "ms", gate(ran("mi_ranking"), ms(dur)))
	for _, id := range coldReports {
		runtime.GC()
		dur = t.time("experiments.Run:"+id, root, func() { experiments.Run(env, id) })
		r.set("experiments.report_ms."+id, "ms", gate(ran("experiment:"+id), ms(dur)))
	}

	// qed: qed.Run for the top-ranked practice.
	var res *qed.Result
	runtime.GC()
	dur = t.time("qed.Run", root, func() {
		res, err = qed.Run(data, ranking[0].Metric, qed.DefaultConfig(practices.MetricNames))
	})
	if err != nil {
		return err
	}
	qpairs := 0
	for _, p := range res.Points {
		qpairs += p.Pairs
	}
	r.set("qed.run_ms", "ms", gate(ran("causal"), ms(dur)))
	r.set("qed.pairs", "count", gate(ran("causal"), float64(qpairs)))

	// ml and the memo: Framework.TrainHealthModel, then the *Cached
	// methods on warm keys, on a framework built like the daemon's.
	f, err := mpa.NewCached(g.inv, g.arch, g.log, g.start, g.end, mpa.CacheConfig{Enabled: true})
	if err != nil {
		return err
	}
	for _, gr := range []struct {
		name string
		g    mpa.Granularity
	}{{"ml.train_two_ms", mpa.TwoClass}, {"ml.train_five_ms", mpa.FiveClass}} {
		runtime.GC()
		dur = t.time("mpa.Framework.TrainHealthModel", root, func() { _, err = f.TrainHealthModel(gr.g) })
		if err != nil {
			return err
		}
		r.set(gr.name, "ms", gate(ran("train_model"), ms(dur)))
	}
	f.RankPracticesCached()
	if _, err := f.NetworkHealthCached(g.networks[0], g.end); err != nil {
		return err
	}
	hits := make([]float64, 0, 4000)
	memoID := t.begin("mpa.memo_hits", root, "")
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		f.RankPracticesCached()
		t1 := time.Now()
		f.NetworkHealthCached(g.networks[0], g.end)
		hits = append(hits, float64(t1.Sub(t0).Nanoseconds())/1e3, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	t.end(memoID)
	r.set("mpa.memo_hit_us", "us", median(hits))
	r.set("mpa.memo_hit_ratio", "ratio", ratio(ph.memoHits, ph.memoMisses))
	overlap := 0.0
	if len(ph.serial) > 0 && len(ph.parallel) > 0 {
		overlap = median(durs(ph.serial)) / median(durs(ph.parallel))
	}
	r.set("mpa.refresh_overlap", "ratio", overlap)

	// mpa, ingest, nms: one month through Framework.Ingest, and its
	// parts: ingest.Decode, Update.Compile, Archive.Clone + Log.Clone,
	// Engine.AnalyzeMonth (on the engine above, warm like the daemon's).
	body := g.updates[0]
	var u *ingest.Update
	runtime.GC()
	decode := t.time("ingest.Decode", root, func() { u, err = ingest.Decode(bytes.NewReader(body)) })
	if err != nil {
		return err
	}
	var comp *ingest.Compiled
	compile := t.time("ingest.Update.Compile", root, func() { comp, err = u.Compile(g.inv, g.arch) })
	if err != nil {
		return err
	}
	var arch2 *mpa.Archive
	clone := t.time("nms.Archive.Clone+ticketing.Log.Clone", root, func() {
		arch2 = g.arch.Clone()
		g.log.Clone()
	})
	for _, s := range comp.Snapshots {
		if err := arch2.Record(s); err != nil {
			return err
		}
	}
	engine.SetArchive(arch2)
	runtime.GC()
	month := t.time("practices.Engine.AnalyzeMonth", root, func() { _, err = engine.AnalyzeMonth(comp.Month, g.networks) })
	if err != nil {
		return err
	}
	u2, err := ingest.Decode(bytes.NewReader(body))
	if err != nil {
		return err
	}
	runtime.GC()
	ingestID := t.begin("mpa.Framework.Ingest", root, "")
	t0 := time.Now()
	_, err = f.Ingest(u2)
	whole := time.Since(t0)
	t.end(ingestID)
	if err != nil {
		return err
	}
	ingested := ran("ingest")
	r.set("mpa.ingest_ms", "ms", gate(ingested, ms(whole)))
	r.set("mpa.ingest_self_ms", "ms", gate(ingested, max(0, ms(whole-compile-clone-month-buildDur))))
	r.set("ingest.decode_ms", "ms", gate(ingested, ms(decode)))
	r.set("ingest.compile_ms", "ms", gate(ingested, ms(compile)))
	r.set("nms.clone_ms", "ms", gate(ingested, ms(clone)))
	r.set("practices.analyze_month_ms", "ms", gate(ingested, ms(month)))
	r.set("ingest.networks", "count", gate(ingested, float64(len(comp.Networks))))

	// serve and net/http: the workload's steady reads through
	// Server.Handler().ServeHTTP without a socket, then the same reads
	// over one loopback connection; the difference of medians is the
	// transport's share.
	// The daemon has moved on since the phase (month steps), so the replay
	// checks only that answers decode.
	replay := make([]*request, len(warm))
	for i, q := range warm {
		c := *q
		c.check = validJSON
		replay[i] = &c
	}
	warm = replay
	c := newConn(d.base)
	defer c.close()
	r.parallel([]*conn{c}, warm, root) // answers the sequence once, so both passes below read warm
	h := d.srv.Handler()
	var handler, e2e []time.Duration
	size := 0
	hid := t.begin("serve.Server.Handler.ServeHTTP", root, "")
	for _, q := range warm {
		req := httptest.NewRequest(q.method, q.path, nil)
		if q.org != "" {
			req.Header.Set(serve.OrgHeader, q.org)
		}
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, time.Since(t0))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler replay %s: status %d", q.path, rec.Code)
		}
		size += rec.Body.Len()
	}
	t.end(hid)
	for _, q := range warm {
		lat, _ := r.exec(c, q, root)
		e2e = append(e2e, lat)
	}
	hp50 := quantileMS(handler, 0.5) * 1e3
	r.set("serve.handler_us_p50", "us", hp50)
	r.set("serve.handler_us_p99", "us", quantileMS(handler, 0.99)*1e3)
	r.set("serve.response_bytes", "bytes", float64(size)/float64(len(warm)))
	r.set("net.transport_us", "us", quantileMS(e2e, 0.5)*1e3-hp50)

	// tenant: RankPartialOf per org + MergeRank, as /v1/fleet/rank does.
	var merge []float64
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		parts := make([]tenant.RankPartial, 0, len(d.orgs))
		for _, o := range d.orgs {
			parts = append(parts, tenant.RankPartialOf(o))
		}
		if _, err := tenant.MergeRank(parts); err != nil {
			return err
		}
		merge = append(merge, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	r.set("tenant.merge_rank_us", "us", gate(ph.fleet, median(merge)))

	// runtime: MemStats deltas over the timed phase.
	r.set("runtime.alloc_mb", "MB", float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc)/(1<<20))
	r.set("runtime.gc_cycles", "count", float64(ph.mem1.NumGC-ph.mem0.NumGC))
	r.set("runtime.gc_pause_ms", "ms", float64(ph.mem1.PauseTotalNs-ph.mem0.PauseTotalNs)/1e6)

	// Tracing overhead: the spans the phase recorded times the measured
	// cost of one span, as a share of the phase's wall time.
	scratch := newTracer()
	const n = 100000
	t0 = time.Now()
	for i := 0; i < n; i++ {
		scratch.end(scratch.begin("x", 0, ""))
	}
	perSpan := time.Since(t0) / n
	r.set("trace.overhead_pct", "%", 100*float64(time.Duration(ph.spans)*perSpan)/float64(ph.wall))
	return nil
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func durs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d)
	}
	return out
}

// dirMB is the total size of the files under dir (0 for "").
func dirMB(dir string) float64 {
	if dir == "" {
		return 0
	}
	var total int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
