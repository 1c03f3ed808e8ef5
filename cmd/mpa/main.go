// Command mpa runs the management plane analytics pipeline on a synthetic
// organization: generate data, rank practices, run causal analyses, and
// train health models.
//
// Usage:
//
//	mpa [flags] <subcommand>
//
// Subcommands:
//
//	summary       dataset sizes (paper Table 2)
//	rank          practices by statistical dependence with health (Table 3)
//	causal        matched-design causal analysis of one practice (-practice)
//	predict       train and evaluate health models (§6.1)
//	online        month-ahead prediction accuracy (Table 9) (-history)
//	characterize  design/operational practice characterization (Appendix A)
//	experiment    run one paper experiment by id (-id), or list ids
//	export        write the organization's raw data to -dir (JSON/CSV/tree)
//	report        per-network report card (-network)
//	stats         run the main pipeline stages and print the per-stage
//	              observability breakdown (time, allocs, counters) plus
//	              the flight recorder's slowest-stage list
//	serve         load once and answer analysis queries over HTTP
//	              (-addr, -max-inflight); see internal/serve. The daemon
//	              serves an org registry: one org named "default" built
//	              from -seed/-networks/-months, or with -orgs or
//	              -orgs-config one warm framework per organization,
//	              sharded by tenant (path segment /v1/orgs/{org}/... or
//	              X-MPA-Org header). Cross-org aggregates are at
//	              /v1/fleet/rank and /v1/fleet/health
//	watch         serve the default org plus streaming ingest: poll
//	              -watch-dir for update files and/or -replay N synthetic
//	              months, apply each in place (POST /v1/ingest works
//	              too), and push deltas to GET /v1/stream subscribers
//	nextmonth     print the month after the configured window as a wire
//	              update (JSON) on stdout — generation is prefix-stable,
//	              so the output applies cleanly to a running `mpa watch`
//	              or `mpa serve` with the same seed/networks/months
//
// Flags:
//
//	-seed N        generator seed (default 1)
//	-networks N    number of networks (default 120; paper scale is 850)
//	-months N      study months (default 10, anchored at Aug 2013)
//	-practice M    practice metric for `causal` (default no_change_events)
//	-id ID         experiment id for `experiment`
//	-history N     training history in months for `online` (default 3)
//	-dir PATH      output directory for `export`
//	-network NAME  network for `report`
//	-workers N     worker goroutines per pipeline stage (0 = all CPUs);
//	               results are byte-identical at any worker count
//	-cache-dir D   on-disk cache of per-network inference (default off);
//	               re-runs with the same directory skip all unchanged
//	               per-network work (serve and watch keep each org's
//	               tier under D/orgs/<org>); results are identical either
//	               way
//	-addr A        listen address for `serve` (default localhost:8080)
//	-max-inflight N  concurrent query limit for `serve` (0 = 2×GOMAXPROCS)
//	-orgs SPEC     multi-tenant serve: comma-separated
//	               name=seed[:networks[:months]] org specs; unset fields
//	               inherit -networks/-months
//	-orgs-config F multi-tenant serve from a JSON registry file:
//	               {"orgs":[{"name":...,"seed":...,"networks":...,"months":...}]}
//	-slow-ms N     serve queries at least this slow are logged at Warn
//	               with a per-stage breakdown and pinned in the flight
//	               recorder (default 1000; 0 disables)
//	-watch-dir D   directory `watch` polls for update files (*.json,
//	               applied once each in filename order)
//	-poll D        watch poll interval / replay cadence (default 2s)
//	-replay N      `watch` replays N synthetic months, one per -poll tick
//
// Observability flags (shared with mpa-experiments):
//
//	-v, -vv            structured stage logs to stderr (info / debug)
//	-progress          live stage progress line on stderr
//	-cpuprofile FILE   CPU profile (runtime/pprof)
//	-memprofile FILE   heap profile on exit
//	-trace FILE        Chrome trace-event JSON of the pipeline span tree
//	-manifest FILE     run-manifest JSON on exit (build info, config,
//	                   stage rollups, metrics, report digests); compare
//	                   runs with cmd/mpa-benchdiff
//	-debug-addr ADDR   serve /debug/pprof, /debug/vars, and Prometheus
//	                   /metrics over HTTP
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"mpa"
	"mpa/internal/ingest"
	"mpa/internal/obs"
	"mpa/internal/par"
	"mpa/internal/serve"
	"mpa/internal/tenant"
)

// defaultOrg names the single org serve and watch load when no -orgs or
// -orgs-config fleet is given: a single-org daemon is a registry of one.
const defaultOrg = "default"

func main() {
	seed := flag.Uint64("seed", 1, "generator seed")
	networks := flag.Int("networks", 120, "number of networks to generate")
	monthsN := flag.Int("months", 10, "study window length in months")
	practice := flag.String("practice", "no_change_events", "practice metric for causal analysis")
	id := flag.String("id", "", "experiment id for the experiment subcommand")
	history := flag.Int("history", 3, "training history (months) for online prediction")
	dir := flag.String("dir", "mpa-export", "output directory for export")
	network := flag.String("network", "", "network name for report")
	workers := flag.Int("workers", 0, "worker goroutines per pipeline stage (0 = all CPUs); results are identical at any count")
	cacheDir := flag.String("cache-dir", "", "on-disk cache directory for per-network inference (empty = no cache); re-runs skip unchanged per-network work, results are identical either way")
	addr := flag.String("addr", "localhost:8080", "listen address for the serve subcommand")
	maxInflight := flag.Int("max-inflight", 0, "concurrent query limit for serve (0 = 2×GOMAXPROCS)")
	orgsSpec := flag.String("orgs", "", "multi-tenant serve: comma-separated name=seed[:networks[:months]] org specs")
	orgsConfig := flag.String("orgs-config", "", "multi-tenant serve: JSON registry file ({\"orgs\":[...]})")
	slowMS := flag.Int("slow-ms", 1000, "serve queries at least this slow (milliseconds) are logged at Warn with a per-stage breakdown and pinned in the flight recorder; 0 disables")
	watchDir := flag.String("watch-dir", "", "directory the watch subcommand polls for update files (*.json)")
	poll := flag.Duration("poll", 2*time.Second, "watch poll interval and replay cadence")
	replayN := flag.Int("replay", 0, "synthetic months the watch subcommand replays, one per poll tick")
	var obsFlags obs.Flags
	obsFlags.Register(flag.CommandLine)
	flag.Parse()

	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	if *monthsN < 1 {
		fmt.Fprintf(os.Stderr, "mpa: -months must be >= 1 (got %d)\n", *monthsN)
		os.Exit(2)
	}
	if *networks < 1 {
		fmt.Fprintf(os.Stderr, "mpa: -networks must be >= 1 (got %d)\n", *networks)
		os.Exit(2)
	}
	if err := obsFlags.Start(); err != nil {
		fatal(err)
	}
	par.SetDefaultWorkers(*workers)

	if cmd == "experiment" && *id == "" {
		fmt.Println("available experiments:")
		for _, eid := range mpa.ExperimentIDs() {
			fmt.Println("  " + eid)
		}
		return
	}

	cfg := mpa.DefaultConfig(*seed)
	cfg.Networks = *networks
	cfg.Workers = *workers
	cfg.Cache = mpa.CacheConfig{Dir: *cacheDir}
	start, _ := mpa.StudyWindow()
	cfg.Start = start
	cfg.End = start.Add(*monthsN - 1)

	// nextmonth only generates the update feed; no framework needed.
	if cmd == "nextmonth" {
		ups, err := mpa.NextMonths(cfg, 1)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(ups[0]); err != nil {
			fatal(err)
		}
		return
	}

	if (*orgsSpec != "" || *orgsConfig != "") && cmd != "serve" {
		fatal(fmt.Errorf("-orgs/-orgs-config apply only to the serve subcommand"))
	}

	// serve and watch run the daemon over an org registry: the -orgs /
	// -orgs-config fleet, or else a registry of one default org.
	if cmd == "serve" || cmd == "watch" {
		specs := []tenant.OrgSpec{{Name: defaultOrg, Seed: cfg.Seed}}
		var err error
		switch {
		case *orgsSpec != "" && *orgsConfig != "":
			err = fmt.Errorf("use -orgs or -orgs-config, not both")
		case *orgsSpec != "":
			specs, err = tenant.ParseOrgs(*orgsSpec)
		case *orgsConfig != "":
			specs, err = tenant.ReadConfig(*orgsConfig)
		}
		if err != nil {
			fatal(err)
		}
		obs.Logger().Info("generating orgs", "orgs", len(specs),
			"networks", cfg.Networks, "months", *monthsN, "seed", cfg.Seed)
		reg, err := tenant.Load(specs, cfg)
		if err != nil {
			fatal(err)
		}
		srv := serve.NewSharded(reg, serve.Config{
			Addr:          *addr,
			MaxInFlight:   *maxInflight,
			SlowThreshold: time.Duration(*slowMS) * time.Millisecond,
		})
		bound, err := srv.Listen()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("mpa: serving %s on http://%s (SIGINT/SIGTERM to stop)\n",
			strings.Join(reg.Names(), ", "), bound)
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		org := reg.Orgs()[0]
		var wg sync.WaitGroup
		// watch feeds the first org from update files and replayed months.
		if cmd == "watch" && *watchDir != "" {
			w := ingest.NewWatcher(*watchDir, *poll, func(path string, u *ingest.Update) error {
				res, err := org.F.Ingest(u)
				if err != nil {
					return err
				}
				fmt.Printf("mpa: ingested %s from %s: %d snapshots, %d tickets, %d networks\n",
					res.MonthName, filepath.Base(path), res.Snapshots, res.Tickets, len(res.Networks))
				return nil
			})
			fmt.Printf("mpa: polling %s every %s for update files\n", *watchDir, *poll)
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = w.Run(ctx)
			}()
		}
		if cmd == "watch" && *replayN > 0 {
			ups, err := mpa.NextMonths(org.Cfg, *replayN)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("mpa: replaying %d synthetic months, one per %s\n", *replayN, *poll)
			wg.Add(1)
			go func() {
				defer wg.Done()
				tick := time.NewTicker(*poll)
				defer tick.Stop()
				for _, u := range ups {
					select {
					case <-ctx.Done():
						return
					case <-tick.C:
					}
					res, err := org.F.Ingest(u)
					if err != nil {
						obs.Logger().Error("watch: replay ingest failed", "err", err)
						return
					}
					fmt.Printf("mpa: replayed %s: %d snapshots, %d tickets, %d networks\n",
						res.MonthName, res.Snapshots, res.Tickets, len(res.Networks))
				}
			}()
		}
		err = srv.Serve(ctx)
		stop()
		wg.Wait()
		if err != nil {
			fatal(err)
		}
		finish(cmd, org.F, &obsFlags)
		return
	}

	obs.Logger().Info("generating organization",
		"networks", cfg.Networks, "months", *monthsN, "seed", cfg.Seed)
	f, err := mpa.NewSynthetic(cfg)
	if err != nil {
		fatal(err)
	}

	switch cmd {
	case "summary":
		printExperiment(f, "table2")
	case "rank":
		fmt.Println("Practices by average monthly mutual information with health:")
		for i, e := range f.RankPractices() {
			fmt.Printf("%2d. %-34s (%s)  MI=%.3f\n",
				i+1, mpa.DisplayName(e.Metric), mpa.MetricCategory(e.Metric), e.MI)
		}
	case "causal":
		res, err := f.AnalyzeCausal(*practice)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Causal analysis of %s:\n", mpa.DisplayName(*practice))
		for _, p := range res.Points {
			status := "not significant"
			switch {
			case p.Skipped:
				status = "insufficient cases"
			case !p.Balanced:
				status = "imbalanced matching"
			case p.Causal:
				status = "CAUSAL (p < 0.001)"
			}
			fmt.Printf("  %s: %d pairs, +%d/-%d/=%d, p=%.3g — %s\n",
				p.Comparison, p.Pairs, p.MoreTickets, p.FewerTickets, p.NoEffect, p.PValue, status)
		}
	case "predict":
		for _, g := range []mpa.Granularity{mpa.TwoClass, mpa.FiveClass} {
			model, err := f.TrainHealthModel(g)
			if err != nil {
				fatal(err)
			}
			q := model.Quality()
			fmt.Printf("%d-class model: accuracy %.3f (majority baseline %.3f)\n",
				int(g), q.Accuracy, q.MajorityAccuracy)
			for c, name := range g.ClassNames() {
				fmt.Printf("  %-10s precision %.2f recall %.2f\n", name, q.Precision[c], q.Recall[c])
			}
		}
	case "online":
		for _, g := range []mpa.Granularity{mpa.TwoClass, mpa.FiveClass} {
			preds, err := f.PredictOnline(g, *history)
			if err != nil {
				fatal(err)
			}
			var sum float64
			for _, p := range preds {
				sum += p.Accuracy
			}
			if len(preds) == 0 {
				fmt.Printf("%d-class: window too short for history %d\n", int(g), *history)
				continue
			}
			fmt.Printf("%d-class online accuracy (M=%d): %.3f over %d months\n",
				int(g), *history, sum/float64(len(preds)), len(preds))
		}
	case "characterize":
		for _, eid := range []string{"figure11", "figure12", "figure13"} {
			printExperiment(f, eid)
		}
	case "export":
		if err := f.Save(*dir); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote inventory.json, tickets.csv, and snapshots/ under %s\n", *dir)
	case "report":
		name := *network
		if name == "" {
			name = f.Dataset().Networks()[0]
		}
		out, err := f.NetworkReport(name)
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	case "experiment":
		r, ok := f.Experiment(*id)
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q; run `mpa experiment` for the list", *id))
		}
		fmt.Println(r.Title)
		fmt.Println(strings.Repeat("=", len(r.Title)))
		fmt.Println(r.Text)
	case "stats":
		// Exercise the analysis stages beyond generation/inference/dataset
		// (which ran in NewSynthetic), then print the per-stage breakdown.
		_ = f.RankPractices()
		if _, err := f.AnalyzeCausal(*practice); err != nil {
			fatal(err)
		}
		if _, err := f.TrainHealthModel(mpa.TwoClass); err != nil {
			fatal(err)
		}
		fmt.Print(f.PipelineStats().Table())
	default:
		usage()
		os.Exit(2)
	}

	finish(cmd, f, &obsFlags)
}

// finish closes a run: it records the framework's stage roots in the
// flight recorder (`mpa stats` prints the slowest), then writes the run
// manifest, profiles, and trace the observability flags asked for. A
// daemon's run record is its first org's.
func finish(cmd string, f *mpa.Framework, obsFlags *obs.Flags) {
	f.RecordStages(obs.DefaultRecorder())
	if cmd == "stats" {
		fmt.Println("\nFlight recorder — slowest stages of this run:")
		for _, s := range obs.DefaultRecorder().Slowest(10) {
			fmt.Printf("  %-28s %12s  %s\n", s.Name, time.Duration(s.DurationNS).Round(10*time.Microsecond), s.ID)
		}
	}

	if obsFlags.ManifestPath != "" {
		m := f.Manifest()
		m.Config.Extra = map[string]string{"command": "mpa " + cmd}
		if err := m.Write(obsFlags.ManifestPath); err != nil {
			fatal(err)
		}
	}
	if err := obsFlags.Stop(f.WriteTrace); err != nil {
		fatal(err)
	}
}

func printExperiment(f *mpa.Framework, id string) {
	r, ok := f.Experiment(id)
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q", id))
	}
	fmt.Println(r.Title)
	fmt.Println(strings.Repeat("=", len(r.Title)))
	fmt.Println(r.Text)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mpa [flags] summary|rank|causal|predict|online|characterize|experiment|export|report|stats|serve|watch|nextmonth")
	flag.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpa:", err)
	os.Exit(1)
}
