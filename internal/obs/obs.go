// Package obs is MPA's observability substrate: hierarchical spans with
// wall-time and allocation deltas, named counters/gauges/histograms
// published through expvar, and a structured logger built on log/slog.
//
// The package is stdlib-only and always on: instrumentation sites record
// unconditionally, but every primitive is engineered to cost a few
// atomic operations (or nothing at all — all Span methods are no-ops on a
// nil receiver), so the pipeline's hot paths pay effectively zero when no
// span is wired in.
//
// A framework's lifetime root is a stage table (NewStageTable): one row
// per stage name (calls, duration, allocation delta, summed counters)
// and no child span, so it stays the same size however long a daemon
// runs. mpa.Framework.PipelineStats, StageCalls and Manifest read it
// through Span.Stages, the one fold-by-name. Each stage's finished span
// tree is handed, as it ends, to the flight recorder (DefaultRecorder)
// and, while a trace is on (StartTrace, the -trace flag), to the trace
// that WriteChromeTrace exports for about:tracing / Perfetto. expvar
// exposes the process-wide counter registry under the "mpa" variable for
// `-debug-addr` long-run monitoring.
package obs

import (
	"log/slog"
	"os"
	"sync/atomic"
)

// level gates the default logger; the zero configuration is quiet
// (warnings and errors only).
var level = func() *slog.LevelVar {
	v := new(slog.LevelVar)
	v.Set(slog.LevelWarn)
	return v
}()

var defaultLogger atomic.Pointer[slog.Logger]

func init() {
	// The default logger tees Warn/Error records into the flight
	// recorder's log ring on the way to stderr, so recent problems stay
	// inspectable (/debug/requests, run manifests) after they scroll by.
	text := slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})
	defaultLogger.Store(slog.New(DefaultRecorder().LogHandler(text)))
}

// Logger returns the package-level structured logger. Pipeline stages log
// through it so verbosity is controlled in one place (`-v` / `-vv` on the
// command lines).
func Logger() *slog.Logger { return defaultLogger.Load() }

// SetVerbosity maps a command-line verbosity count onto the default
// logger's level: 0 = warnings only (quiet), 1 = info (`-v`),
// 2+ = debug (`-vv`).
func SetVerbosity(v int) {
	switch {
	case v <= 0:
		level.Set(slog.LevelWarn)
	case v == 1:
		level.Set(slog.LevelInfo)
	default:
		level.Set(slog.LevelDebug)
	}
}
