package obs

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
)

// Flags is the shared observability CLI surface: verbosity, live
// progress, CPU and heap profiles, Chrome trace output, the run-manifest
// path, and a debug HTTP server exposing net/http/pprof, expvar, and
// Prometheus /metrics. A command embeds it, Registers it on its FlagSet,
// calls Start after parsing, and Stop on every way out, so the profile,
// trace and debug-server wiring stays out of the command.
type Flags struct {
	// Verbose raises logging to info; VeryVerbose to debug.
	Verbose     bool
	VeryVerbose bool
	// Progress enables the live stderr progress line.
	Progress bool
	// CPUProfile and MemProfile name runtime/pprof output files.
	CPUProfile string
	MemProfile string
	// TracePath names the Chrome trace-event JSON output file.
	TracePath string
	// ManifestPath names the run-manifest JSON output file; the command
	// writes it on the way out (internal/runinfo holds the schema).
	ManifestPath string
	// DebugAddr, when non-empty, serves /debug/pprof, /debug/vars, and
	// /metrics.
	DebugAddr string

	cpuFile   *os.File
	boundAddr string
}

// Register installs the flags on fs.
func (p *Flags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&p.Verbose, "v", false, "log pipeline stages to stderr (info level)")
	fs.BoolVar(&p.VeryVerbose, "vv", false, "log per-network/per-month detail to stderr (debug level)")
	fs.BoolVar(&p.Progress, "progress", false, "render live stage progress on stderr")
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&p.MemProfile, "memprofile", "", "write a heap profile to `file` on exit")
	fs.StringVar(&p.TracePath, "trace", "", "write Chrome trace-event JSON to `file` on exit")
	fs.StringVar(&p.ManifestPath, "manifest", "", "write a run-manifest JSON (build info, config, stage rollups, report digests) to `file` on exit")
	fs.StringVar(&p.DebugAddr, "debug-addr", "", "serve /debug/pprof, /debug/vars, and /metrics on `addr` (e.g. localhost:6060)")
}

// Start applies the verbosity, begins CPU profiling and the trace, and
// launches the debug server on the shared DebugMux (never the default
// mux, so embedders and repeated Starts cannot hit a duplicate-
// registration panic). It returns an error when a profile file cannot be
// created or the debug address cannot be bound.
func (p *Flags) Start() error {
	switch {
	case p.VeryVerbose:
		SetVerbosity(2)
	case p.Verbose:
		SetVerbosity(1)
	}
	if p.Progress {
		EnableProgress()
	}
	if p.TracePath != "" {
		StartTrace()
	}
	if p.CPUProfile != "" {
		f, err := os.Create(p.CPUProfile)
		if err != nil {
			return fmt.Errorf("obs: cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("obs: cpuprofile: %w", err)
		}
		p.cpuFile = f
	}
	if p.DebugAddr != "" {
		ln, err := net.Listen("tcp", p.DebugAddr)
		if err != nil {
			return fmt.Errorf("obs: debug-addr: %w", err)
		}
		p.boundAddr = ln.Addr().String()
		Logger().Info("debug server listening", "addr", p.boundAddr)
		go func() {
			if err := http.Serve(ln, DebugMux()); err != nil {
				Logger().Error("debug server exited", "addr", ln.Addr().String(), "err", err)
			}
		}()
	}
	return nil
}

// Stop finishes CPU profiling and writes the heap profile and the trace,
// when requested. The trace holds every stage tree that ended on a stage
// table since Start; when none did (no pipeline ran), no trace file is
// written. Both outputs are written atomically (temp file + rename): a
// failed write leaves no truncated file behind.
func (p *Flags) Stop() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(p.cpuFile.Close())
		p.cpuFile = nil
	}
	if p.MemProfile != "" {
		keep(writeFileAtomic(p.MemProfile, "memprofile", func(w io.Writer) error {
			runtime.GC() // capture the retained heap, not transient garbage
			return pprof.WriteHeapProfile(w)
		}))
	}
	if p.TracePath != "" {
		if roots := StopTrace(); len(roots) > 0 {
			keep(writeFileAtomic(p.TracePath, "trace", func(w io.Writer) error {
				return WriteChromeTrace(w, roots...)
			}))
		}
	}
	return firstErr
}

// writeFileAtomic writes through a temp file in the destination
// directory and renames into place — the same pattern as
// runinfo.Manifest.Write — so a write that fails midway (full disk,
// exporter error) never leaves a truncated profile or trace behind.
func writeFileAtomic(path, what string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("obs: %s: %w", what, err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("obs: %s: %w", what, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("obs: %s: %w", what, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("obs: %s: %w", what, err)
	}
	return nil
}
