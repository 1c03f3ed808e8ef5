package mpa

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mpa/internal/obs"
	"mpa/internal/par"
	"mpa/internal/report"
	"mpa/internal/runinfo"
)

// StageStat is one pipeline stage's row: every call of the stage (e.g.
// repeated MI rankings or model trainings) merged.
type StageStat = obs.StageStat

// PipelineStats is the per-stage breakdown of everything the framework has
// run so far.
type PipelineStats struct {
	// Total is the root span's age: time since the framework's pipeline
	// began.
	Total time.Duration
	// Stages lists the stages in first-execution order.
	Stages []StageStat
}

// PipelineStats returns the framework's stage table: one row per
// pipeline stage with total time, allocation, and counters. Stages
// accrue as the framework runs, so call it after the work of interest.
func (f *Framework) PipelineStats() PipelineStats {
	root := f.environment().Obs
	return PipelineStats{Total: root.Duration(), Stages: root.Stages()}
}

// Table renders the stats as a fixed-width table: one row per stage with
// call count, total time, total allocation, and the stage's counters.
func (ps PipelineStats) Table() string {
	tb := report.NewTable("Stage", "Calls", "Time", "Alloc", "Counters")
	for _, st := range ps.Stages {
		tb.AddRow(st.Name, fmt.Sprint(st.Calls),
			formatDuration(st.Duration), formatBytes(st.AllocBytes),
			formatCounters(st.Counters))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nPipeline age: %s across %d stage rows.\n",
		formatDuration(ps.Total), len(ps.Stages))
	return b.String()
}

// StageCalls returns how many stages named stage the framework has
// started — e.g. StageCalls("inference") is 1 after construction and
// must stay 1 however many warm queries run. Serve-mode tests pin the
// no-recomputation guarantee with it.
func (f *Framework) StageCalls(stage string) int {
	for _, st := range f.environment().Obs.Stages() {
		if st.Name == stage {
			return st.Calls
		}
	}
	return 0
}

// Manifest builds the run manifest for everything the framework has run
// so far: build info, the run's config, the per-stage rollup of
// PipelineStats, and the SHA-256 digest of every experiment report
// produced. It describes this framework (one org of a daemon) and
// nothing process-wide; AddProcess adds the metric registry, runtime/GC
// state and flight recorder for a run artifact, as mpa's -manifest file
// does. Like PipelineStats, it reflects the work done up to the call —
// build it last.
func (f *Framework) Manifest() *runinfo.Manifest {
	m := runinfo.New()
	env := f.environment() // one snapshot: config and digests must agree
	m.Config = runinfo.RunConfig{
		Seed:         env.Params.Seed,
		Networks:     len(env.OSP.Inventory.Networks),
		WindowStart:  env.Params.Start.String(),
		WindowEnd:    env.Params.End.String(),
		Workers:      par.Workers(),
		CacheEnabled: f.cacheDir != "",
		CacheDir:     f.cacheDir,
	}
	ps := f.PipelineStats()
	m.TotalWallNS = int64(ps.Total)
	m.Stages = make([]runinfo.Stage, 0, len(ps.Stages))
	for _, st := range ps.Stages {
		m.Stages = append(m.Stages, runinfo.Stage{
			Name:       st.Name,
			Calls:      st.Calls,
			WallNS:     int64(st.Duration),
			AllocBytes: st.AllocBytes,
			Counters:   st.Counters,
		})
	}
	if digests := env.ReportDigests(); len(digests) > 0 {
		m.Reports = digests
	}
	return m
}

// formatDuration rounds to a human scale: microseconds under 1ms,
// otherwise milliseconds under 10s, otherwise 10ms granularity.
func formatDuration(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < 10*time.Second:
		return d.Round(100 * time.Microsecond).String()
	default:
		return d.Round(10 * time.Millisecond).String()
	}
}

// formatBytes renders a byte count with a binary unit.
func formatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// formatCounters renders counters as "name=value" pairs in sorted order.
func formatCounters(c map[string]float64) string {
	if len(c) == 0 {
		return "-"
	}
	names := make([]string, 0, len(c))
	for k := range c {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, k := range names {
		v := c[k]
		if v == float64(int64(v)) {
			parts = append(parts, fmt.Sprintf("%s=%d", k, int64(v)))
		} else {
			parts = append(parts, fmt.Sprintf("%s=%.2f", k, v))
		}
	}
	return strings.Join(parts, " ")
}
