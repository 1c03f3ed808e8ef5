// Command mpa runs the management plane analytics pipeline on a synthetic
// organization: generate data, rank practices, run causal analyses,
// train health models, and regenerate the paper's tables and figures.
//
// Usage:
//
//	mpa [flags] <subcommand> [flags]
//
// Flags may come before or after the subcommand; `mpa -h` lists them.
//
// Subcommands:
//
//	summary       dataset sizes (paper Table 2)
//	rank          practices by statistical dependence with health (Table 3)
//	causal        matched-design causal analysis of one practice (-practice)
//	predict       train and evaluate health models (§6.1)
//	online        month-ahead prediction accuracy (Table 9) (-history)
//	characterize  design/operational practice characterization (Appendix A)
//	experiment    run paper experiments (-id: one id, a comma list, or
//	              all), or list the ids when -id is empty
//	export        write the organization's raw data to -dir (JSON/CSV/tree)
//	report        per-network report card (-network)
//	stats         run the main pipeline stages and print the per-stage
//	              observability breakdown (time, allocs, counters) plus
//	              the flight recorder's slowest-stage list
//	serve         load once and answer analysis queries over HTTP
//	              (-addr, -max-inflight) for one org named "default"
//	              built from -seed/-networks/-months, or for each org of
//	              -orgs or -orgs-config; see internal/serve
//	watch         serve the default org plus streaming ingest: poll
//	              -watch-dir for update files and/or -replay N synthetic
//	              months, apply each in place (POST /v1/ingest works
//	              too), and push deltas to GET /v1/stream subscribers
//	nextmonth     print the month after the configured window as a wire
//	              update (JSON) on stdout — generation is prefix-stable,
//	              so the output applies cleanly to a running `mpa watch`
//	              or `mpa serve` with the same seed/networks/months
//
// `mpa -networks 850 -months 17 -id all experiment` regenerates every
// table and figure at the paper's scale. Output is byte-identical at any
// -workers count and with or without -cache-dir.
//
// Profiles and the trace are written on every exit once the flags are
// accepted. The exit status is 0 on success, 1 when the run fails, and 2
// for a usage error (bad flag, subcommand or experiment id), which is
// reported before any data is generated.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"mpa"
	"mpa/internal/ingest"
	"mpa/internal/obs"
	"mpa/internal/serve"
	"mpa/internal/tenant"
)

// defaultOrg names the single org serve and watch load when no -orgs or
// -orgs-config fleet is given: a single-org daemon is a registry of one.
const defaultOrg = "default"

// commands lists the subcommands in usage order.
var commands = []string{"summary", "rank", "causal", "predict", "online", "characterize",
	"experiment", "export", "report", "stats", "serve", "watch", "nextmonth"}

// reportCommands are the subcommands that print a fixed list of
// experiment reports, the same way `experiment -id` does.
var reportCommands = map[string][]string{
	"summary":      {"table2"},
	"characterize": {"figure11", "figure12", "figure13"},
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the parsed command line.
type options struct {
	seed                                                            uint64
	networks, months, history, workers, maxInflight, slowMS, replay int
	practice, id, dir, network, cacheDir, addr                      string
	orgs, orgsConfig, watchDir                                      string
	poll                                                            time.Duration
	obs                                                             obs.Flags
}

func (o *options) register(fs *flag.FlagSet) {
	fs.Uint64Var(&o.seed, "seed", 1, "generator seed")
	fs.IntVar(&o.networks, "networks", 120, "number of networks to generate (paper scale: 850)")
	fs.IntVar(&o.months, "months", 10, "study window length in months, from Aug 2013 (paper scale: 17)")
	fs.StringVar(&o.practice, "practice", "no_change_events", "practice metric for causal analysis")
	fs.StringVar(&o.id, "id", "", "experiment ids for the experiment subcommand: one id, a comma list, or all (empty = list the ids)")
	fs.IntVar(&o.history, "history", 3, "training history (months) for online prediction")
	fs.StringVar(&o.dir, "dir", "mpa-export", "output directory for export")
	fs.StringVar(&o.network, "network", "", "network name for report (default: the first)")
	fs.IntVar(&o.workers, "workers", 0, "worker goroutines per pipeline stage (0 = all CPUs); results are identical at any count")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "on-disk cache directory (empty = no cache; serve and watch use D/orgs/<org>): per-network inference, so re-runs skip unchanged per-network work, and the daemon's rank, causal, predict and report answers, so a restart over the same data answers them from disk; results are identical either way")
	fs.StringVar(&o.addr, "addr", "localhost:8080", "listen address for the serve subcommand")
	fs.IntVar(&o.maxInflight, "max-inflight", 0, "concurrent query limit for serve (0 = 2×GOMAXPROCS)")
	fs.StringVar(&o.orgs, "orgs", "", "multi-tenant serve: comma-separated name=seed[:networks[:months]] org specs; unset fields inherit -networks/-months")
	fs.StringVar(&o.orgsConfig, "orgs-config", "", "multi-tenant serve: JSON registry file ({\"orgs\":[{\"name\":...,\"seed\":...,\"networks\":...,\"months\":...}]})")
	fs.IntVar(&o.slowMS, "slow-ms", 1000, "serve queries at least this slow (milliseconds) are logged at Warn with a per-stage breakdown and pinned in the flight recorder; 0 disables")
	fs.StringVar(&o.watchDir, "watch-dir", "", "directory the watch subcommand polls for update files (*.json, applied once each in filename order)")
	fs.DurationVar(&o.poll, "poll", 2*time.Second, "watch poll interval and replay cadence")
	fs.IntVar(&o.replay, "replay", 0, "synthetic months the watch subcommand replays, one per poll tick")
	o.obs.Register(fs)
}

// run is the whole command: it parses args, runs one subcommand writing
// to stdout and stderr, and returns the exit status. serve and watch
// stop when ctx is cancelled or on SIGINT/SIGTERM.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpa", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mpa [flags] %s [flags]\n", strings.Join(commands, "|"))
		fs.PrintDefaults()
	}
	var o options
	o.register(fs)

	// The flag package stops at the first non-flag argument: parse up to
	// the subcommand, take it, and parse what follows with the same set.
	var cmd string
	err := fs.Parse(args)
	if err == nil && fs.NArg() > 0 {
		cmd = fs.Arg(0)
		err = fs.Parse(fs.Args()[1:])
	}
	switch {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil: // the FlagSet has reported it
		return 2
	case cmd == "":
		fs.Usage()
		return 2
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "mpa: unexpected argument %q after %s\n", fs.Arg(0), cmd)
		return 2
	case !slices.Contains(commands, cmd):
		fmt.Fprintf(stderr, "mpa: unknown subcommand %q\n", cmd)
		fs.Usage()
		return 2
	}
	ids, err := o.validate(cmd)
	if err != nil {
		fmt.Fprintln(stderr, "mpa:", err)
		return 2
	}

	if err := o.obs.Start(); err != nil {
		return fail(stderr, err)
	}
	mpa.SetWorkers(o.workers)
	err = o.execute(ctx, cmd, ids, stdout)
	if stopErr := o.obs.Stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return fail(stderr, err)
	}
	return 0
}

// fail reports err under the command's "mpa:" prefix, which errors from
// the mpa package already carry, and returns the failure status.
func fail(stderr io.Writer, err error) int {
	msg := err.Error()
	if !strings.HasPrefix(msg, "mpa: ") {
		msg = "mpa: " + msg
	}
	fmt.Fprintln(stderr, msg)
	return 1
}

// validate checks the flag values that need no data and returns the
// experiment ids cmd prints: nil for a subcommand that prints none, and
// for `experiment` without -id (which lists the ids).
func (o *options) validate(cmd string) ([]string, error) {
	switch {
	case o.months < 1:
		return nil, fmt.Errorf("-months must be >= 1 (got %d)", o.months)
	case o.networks < 1:
		return nil, fmt.Errorf("-networks must be >= 1 (got %d)", o.networks)
	case (o.orgs != "" || o.orgsConfig != "") && cmd != "serve":
		return nil, fmt.Errorf("-orgs/-orgs-config apply only to the serve subcommand")
	case o.orgs != "" && o.orgsConfig != "":
		return nil, fmt.Errorf("use -orgs or -orgs-config, not both")
	}
	if ids, ok := reportCommands[cmd]; ok {
		return ids, nil
	}
	if cmd != "experiment" || o.id == "" {
		return nil, nil
	}
	known := mpa.ExperimentIDs()
	if o.id == "all" {
		return known, nil
	}
	ids := strings.Split(o.id, ",")
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
		if !slices.Contains(known, ids[i]) {
			return nil, fmt.Errorf("unknown experiment %q; run `mpa experiment` for the list", ids[i])
		}
	}
	return ids, nil
}

// execute runs the subcommand cmd.
func (o *options) execute(ctx context.Context, cmd string, ids []string, stdout io.Writer) error {
	cfg := mpa.DefaultConfig(o.seed)
	cfg.Networks = o.networks
	cfg.Cache = mpa.CacheConfig{Dir: o.cacheDir}
	cfg.Start, _ = mpa.StudyWindow()
	cfg.End = cfg.Start.Add(o.months - 1)
	switch {
	case cmd == "experiment" && ids == nil:
		fmt.Fprintln(stdout, "available experiments:")
		for _, id := range mpa.ExperimentIDs() {
			fmt.Fprintln(stdout, "  "+id)
		}
		return nil
	case cmd == "nextmonth":
		// nextmonth only generates the update feed; no framework needed.
		ups, err := mpa.NextMonths(cfg, 1)
		if err != nil {
			return err
		}
		return json.NewEncoder(stdout).Encode(ups[0])
	case cmd == "serve" || cmd == "watch":
		return o.daemon(ctx, cmd, cfg, stdout)
	}

	obs.Logger().Info("generating organization",
		"networks", cfg.Networks, "months", o.months, "seed", cfg.Seed)
	f, err := mpa.NewSynthetic(cfg)
	if err != nil {
		return err
	}
	if err := o.analyze(f, cmd, ids, stdout); err != nil {
		return err
	}
	return o.finish(cmd, f)
}

// analyze runs a batch subcommand on a loaded framework.
func (o *options) analyze(f *mpa.Framework, cmd string, ids []string, stdout io.Writer) error {
	switch cmd {
	case "summary", "characterize", "experiment":
		// Results come back in input order, so the output is identical
		// at any worker count.
		for _, res := range f.RunExperiments(ids) {
			r := res.Report
			fmt.Fprintln(stdout, r.Title)
			fmt.Fprintln(stdout, strings.Repeat("=", len(r.Title)))
			fmt.Fprintln(stdout, r.Text)
		}
	case "rank":
		fmt.Fprintln(stdout, "Practices by average monthly mutual information with health:")
		for i, e := range f.RankPractices() {
			fmt.Fprintf(stdout, "%2d. %-34s (%s)  MI=%.3f\n",
				i+1, mpa.DisplayName(e.Metric), mpa.MetricCategory(e.Metric), e.MI)
		}
	case "causal":
		res, err := f.AnalyzeCausal(o.practice)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Causal analysis of %s:\n", mpa.DisplayName(o.practice))
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
			fmt.Fprintf(stdout, "  %s: %d pairs, +%d/-%d/=%d, p=%.3g — %s\n",
				p.Comparison, p.Pairs, p.MoreTickets, p.FewerTickets, p.NoEffect, p.PValue, status)
		}
	case "predict":
		for _, g := range []mpa.Granularity{mpa.TwoClass, mpa.FiveClass} {
			model, err := f.TrainHealthModel(g)
			if err != nil {
				return err
			}
			q := model.Quality()
			fmt.Fprintf(stdout, "%d-class model: accuracy %.3f (majority baseline %.3f)\n",
				int(g), q.Accuracy, q.MajorityAccuracy)
			for c, name := range g.ClassNames() {
				fmt.Fprintf(stdout, "  %-10s precision %.2f recall %.2f\n", name, q.Precision[c], q.Recall[c])
			}
		}
	case "online":
		for _, g := range []mpa.Granularity{mpa.TwoClass, mpa.FiveClass} {
			preds, err := f.PredictOnline(g, o.history)
			if err != nil {
				return err
			}
			if len(preds) == 0 {
				fmt.Fprintf(stdout, "%d-class: window too short for history %d\n", int(g), o.history)
				continue
			}
			var sum float64
			for _, p := range preds {
				sum += p.Accuracy
			}
			fmt.Fprintf(stdout, "%d-class online accuracy (M=%d): %.3f over %d months\n",
				int(g), o.history, sum/float64(len(preds)), len(preds))
		}
	case "export":
		if err := f.Save(o.dir); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote inventory.json, tickets.csv, and snapshots/ under %s\n", o.dir)
	case "report":
		name := o.network
		if name == "" {
			name = f.Dataset().Networks()[0]
		}
		out, err := f.NetworkReport(name)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, out)
	case "stats":
		// Exercise the analysis stages beyond generation/inference/dataset
		// (which ran in NewSynthetic), then print the per-stage breakdown
		// and the slowest stages the flight recorder holds.
		_ = f.RankPractices()
		if _, err := f.AnalyzeCausal(o.practice); err != nil {
			return err
		}
		if _, err := f.TrainHealthModel(mpa.TwoClass); err != nil {
			return err
		}
		fmt.Fprint(stdout, f.PipelineStats().Table())
		fmt.Fprintln(stdout, "\nFlight recorder — slowest stages of this run:")
		for _, s := range obs.DefaultRecorder().Slowest(10) {
			fmt.Fprintf(stdout, "  %-28s %12s  %s\n", s.Name, time.Duration(s.DurationNS).Round(10*time.Microsecond), s.ID)
		}
	}
	return nil
}

// daemon runs serve or watch over an org registry: the -orgs /
// -orgs-config fleet, or else a registry of one default org. The first
// org's framework is the one whose run record the daemon reports.
func (o *options) daemon(ctx context.Context, cmd string, cfg mpa.Config, stdout io.Writer) error {
	var mu sync.Mutex // the watcher and the replay loop print concurrently
	printf := func(format string, a ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(stdout, format, a...)
	}
	specs := []tenant.OrgSpec{{Name: defaultOrg, Seed: cfg.Seed}}
	var err error
	switch {
	case o.orgs != "":
		specs, err = tenant.ParseOrgs(o.orgs)
	case o.orgsConfig != "":
		specs, err = tenant.ReadConfig(o.orgsConfig)
	}
	if err != nil {
		return err
	}
	obs.Logger().Info("generating orgs", "orgs", len(specs),
		"networks", cfg.Networks, "months", o.months, "seed", cfg.Seed)
	reg, err := tenant.Load(specs, cfg)
	if err != nil {
		return err
	}
	srv := serve.NewSharded(reg, serve.Config{
		Addr:          o.addr,
		MaxInFlight:   o.maxInflight,
		SlowThreshold: time.Duration(o.slowMS) * time.Millisecond,
	})
	org := reg.Orgs()[0]
	var ups []*mpa.IngestUpdate
	if cmd == "watch" && o.replay > 0 {
		if ups, err = mpa.NextMonths(org.Cfg, o.replay); err != nil {
			return err
		}
	}
	bound, err := srv.Listen()
	if err != nil {
		return err
	}
	printf("mpa: serving %s on http://%s (SIGINT/SIGTERM to stop)\n",
		strings.Join(reg.Names(), ", "), bound)
	// Only the daemon traps signals: a batch subcommand keeps the default
	// SIGINT behaviour and stops at once.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	var wg sync.WaitGroup
	// watch feeds the first org from update files and replayed months.
	if cmd == "watch" && o.watchDir != "" {
		w := ingest.NewWatcher(o.watchDir, o.poll, func(path string, u *ingest.Update) error {
			res, err := org.F.Ingest(u)
			if err != nil {
				return err
			}
			printf("mpa: ingested %s from %s: %d snapshots, %d tickets, %d networks\n",
				res.MonthName, filepath.Base(path), res.Snapshots, res.Tickets, len(res.Networks))
			return nil
		})
		printf("mpa: polling %s every %s for update files\n", o.watchDir, o.poll)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	if len(ups) > 0 {
		printf("mpa: replaying %d synthetic months, one per %s\n", o.replay, o.poll)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(o.poll)
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
				printf("mpa: replayed %s: %d snapshots, %d tickets, %d networks\n",
					res.MonthName, res.Snapshots, res.Tickets, len(res.Networks))
			}
		}()
	}
	err = srv.Serve(ctx)
	stop()
	wg.Wait()
	if err != nil {
		return err
	}
	return o.finish(cmd, org.F)
}

// finish closes a successful run: it writes the run manifest -manifest
// asked for, process sections included.
func (o *options) finish(cmd string, f *mpa.Framework) error {
	if o.obs.ManifestPath == "" {
		return nil
	}
	m := f.Manifest().AddProcess()
	m.Config.Extra = map[string]string{"command": "mpa " + cmd}
	return m.Write(o.obs.ManifestPath)
}
