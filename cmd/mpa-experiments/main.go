// Command mpa-experiments regenerates every table and figure of the
// paper's evaluation (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for the recorded paper-vs-measured comparison).
//
// Usage:
//
//	mpa-experiments [-seed N] [-scale small|medium|full] [-only id,id,...]
//	                [-workers N] [-cache-dir DIR]
//
// Scale selects the synthetic OSP size: small (60 networks, 6 months),
// medium (240 networks, 10 months), or full (the paper's 850 networks
// over 17 months; takes a few minutes and several GB of memory).
//
// -workers bounds the goroutines each pipeline stage (generation,
// inference, CV folds, forest trees, experiment fan-out) may use; 0 (the
// default) uses every CPU. Output is byte-identical at any worker count.
//
// -cache-dir stores per-network practice inference on disk under SHA-256
// content keys: re-running with the same directory skips all unchanged
// per-network work, which is most of the pipeline. Output is
// byte-identical with the cache cold, warm, or off (no -cache-dir); its
// hit/miss counters appear under "cache.*" in /debug/vars and the stats
// breakdown.
//
// The observability flags of cmd/mpa (-v, -vv, -progress, -cpuprofile,
// -memprofile, -trace, -manifest, -debug-addr) are available here too.
// -progress renders a live per-stage completion line on stderr;
// -manifest writes a run-manifest JSON on exit (build info, config,
// per-stage rollups, the metric registry, and a SHA-256 digest of every
// experiment report) that cmd/mpa-benchdiff can compare across runs;
// -debug-addr additionally serves Prometheus text-format /metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mpa"
	"mpa/internal/obs"
	"mpa/internal/par"
)

func main() {
	seed := flag.Uint64("seed", 1, "generator seed")
	scale := flag.String("scale", "medium", "small | medium | full")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	workers := flag.Int("workers", 0, "worker goroutines per pipeline stage (0 = all CPUs); results are identical at any count")
	cacheDir := flag.String("cache-dir", "", "on-disk cache directory for per-network inference (empty = no cache); re-runs skip unchanged per-network work, results are identical either way")
	var obsFlags obs.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()
	if err := obsFlags.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "mpa-experiments:", err)
		os.Exit(1)
	}
	par.SetDefaultWorkers(*workers)

	var cfg mpa.Config
	switch *scale {
	case "small":
		cfg = mpa.SmallConfig(*seed)
	case "medium":
		cfg = mpa.SmallConfig(*seed)
		cfg.Networks = 240
		start, _ := mpa.StudyWindow()
		cfg.Start = start
		cfg.End = start.Add(9)
	case "full":
		cfg = mpa.DefaultConfig(*seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	cfg.Workers = *workers
	cfg.Cache = mpa.CacheConfig{Dir: *cacheDir}

	ids := mpa.ExperimentIDs()
	if *only != "" {
		ids = strings.Split(*only, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
	}

	obs.Logger().Info("generating OSP",
		"networks", cfg.Networks, "start", cfg.Start.String(), "end", cfg.End.String(),
		"seed", cfg.Seed, "scale", *scale)
	t0 := time.Now()
	f, err := mpa.NewSynthetic(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpa-experiments:", err)
		os.Exit(1)
	}
	obs.Logger().Info("generation + inference complete",
		"elapsed", time.Since(t0).Round(time.Second).String(), "dataset", f.Dataset().String())

	// Fan the experiments out across workers; results come back in input
	// order, so the printed output is identical at any worker count.
	t1 := time.Now()
	for _, res := range f.RunExperiments(ids, cfg.Workers) {
		if !res.OK {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", res.ID)
			continue
		}
		r := res.Report
		fmt.Println(r.Title)
		fmt.Println(strings.Repeat("=", len(r.Title)))
		fmt.Println(r.Text)
	}
	obs.Logger().Info("experiments complete",
		"count", len(ids), "elapsed", time.Since(t1).Round(time.Millisecond).String())

	if obsFlags.ManifestPath != "" {
		m := f.Manifest()
		m.Config.Extra = map[string]string{"command": "mpa-experiments", "scale": *scale}
		if err := m.Write(obsFlags.ManifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "mpa-experiments:", err)
			os.Exit(1)
		}
		obs.Logger().Info("manifest written", "path", obsFlags.ManifestPath,
			"stages", len(m.Stages), "reports", len(m.Reports))
	}
	if err := obsFlags.Stop(f.WriteTrace); err != nil {
		fmt.Fprintln(os.Stderr, "mpa-experiments:", err)
		os.Exit(1)
	}
}
