// Package runinfo captures one pipeline run as a single diffable JSON
// artifact: the run manifest. A manifest ties a performance number to
// the exact code and configuration that produced it — build info (VCS
// revision, Go version), the run's config (seed, window, workers, cache
// settings), the per-stage span rollup (wall time, allocation,
// counters, cache hits/misses) and a SHA-256 digest of every
// experiment report the run produced. Two runs of the same revision and
// config must produce byte-identical report digests; anything else is a
// determinism bug.
//
// New builds the per-organization description: everything above, and
// nothing that belongs to the process. AddProcess adds the
// process-wide sections — the whole metric registry, runtime/GC state
// and the flight recorder — for a run artifact (mpa's -manifest file).
// A daemon serves the per-org description at /v1/manifest and the
// process sections live at /metrics, /debug/slo and /debug/requests, so
// one org's manifest never shows another org's requests or series and
// does not grow with traffic.
//
// # Schema (mpa.run-manifest/v1)
//
//	{
//	  "schema":     "mpa.run-manifest/v1",
//	  "created_at": RFC 3339 timestamp,
//	  "build":      {go_version, module, vcs_revision?, vcs_time?, vcs_dirty?},
//	  "config":     {seed, networks, window_start, window_end, workers,
//	                 cache_enabled, cache_dir?, extra?},
//	  "total_wall_ns": root-span age in nanoseconds,
//	  "stages":     [{name, calls, wall_ns, alloc_bytes, counters?}, ...],
//	  "metrics":    {counters, gauges, log_histograms?}? — process only:
//	                the obs registry,
//	  "runtime":    {gomaxprocs, num_cpu, heap_objects_bytes,
//	                 heap_sys_bytes, total_alloc_bytes, gc_cycles,
//	                 gc_pause_total_ns}? — process only,
//	  "report_digests": {experiment-id: sha256-hex, ...},
//	  "recorder":   {requests, retained_traces, logs}? — process only:
//	                the process flight recorder (obs.RecorderSnapshot):
//	                recent request/stage summaries, the IDs whose span
//	                trees are retained, and recent Warn/Error log records
//	}
//
// Optional fields marked ? are omitted when empty; the three marked
// process only appear only after AddProcess. Validate enforces the
// invariants the schema promises; cmd/mpa-benchdiff consumes manifests
// (stage wall times) interchangeably with bench.sh baselines.
package runinfo

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"mpa/internal/obs"
)

// Schema identifies the manifest format; bump on incompatible change.
const Schema = "mpa.run-manifest/v1"

// Manifest is one run's record. Build a skeleton with New, fill Config,
// Stages, TotalWallNS, and Reports from the pipeline that ran, add the
// process sections with AddProcess for a run artifact, then Write it.
type Manifest struct {
	Schema      string    `json:"schema"`
	CreatedAt   time.Time `json:"created_at"`
	Build       BuildInfo `json:"build"`
	Config      RunConfig `json:"config"`
	TotalWallNS int64     `json:"total_wall_ns"`
	Stages      []Stage   `json:"stages"`
	// Metrics snapshots the whole obs registry (AddProcess only).
	Metrics *obs.MetricsSnapshot `json:"metrics,omitempty"`
	// Runtime records process memory and GC state (AddProcess only).
	Runtime *RuntimeSnapshot `json:"runtime,omitempty"`
	// Reports maps experiment IDs to the SHA-256 hex digest of the
	// rendered report (experiments.Report.Digest). Digests are
	// byte-stable across identical runs.
	Reports map[string]string `json:"report_digests,omitempty"`
	// Recorder snapshots the process flight recorder — recent
	// request/stage summaries, retained-trace IDs, and recent Warn/Error
	// log records — when AddProcess found anything recorded; absent
	// otherwise.
	Recorder *obs.RecorderSnapshot `json:"recorder,omitempty"`
}

// BuildInfo identifies the binary that ran: Go version and, when the
// binary was built inside a VCS checkout, the revision it was built
// from. Test binaries and `go run` builds usually carry no VCS stamps;
// those fields are simply absent.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	VCSTime   string `json:"vcs_time,omitempty"`
	Dirty     bool   `json:"vcs_dirty,omitempty"`
}

// RunConfig records the settings that determine the run's output and
// performance. Extra carries command-level settings (subcommand, scale)
// that have no framework-level equivalent.
type RunConfig struct {
	Seed        uint64 `json:"seed"`
	Networks    int    `json:"networks"`
	WindowStart string `json:"window_start"`
	WindowEnd   string `json:"window_end"`
	Workers     int    `json:"workers"`
	// CacheEnabled records whether the disk cache tier was on (CacheDir
	// set).
	CacheEnabled bool              `json:"cache_enabled"`
	CacheDir     string            `json:"cache_dir,omitempty"`
	Extra        map[string]string `json:"extra,omitempty"`
}

// Stage is one pipeline stage's rollup: one row of the framework's stage
// table (mpa.PipelineStats).
type Stage struct {
	Name       string             `json:"name"`
	Calls      int                `json:"calls"`
	WallNS     int64              `json:"wall_ns"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Counters   map[string]float64 `json:"counters,omitempty"`
}

// RuntimeSnapshot records process-wide memory and GC state at manifest
// time. HeapSysBytes is the heap memory obtained from the OS — a
// high-water proxy for peak heap, since the runtime rarely returns heap
// spans.
type RuntimeSnapshot struct {
	GoMaxProcs       int    `json:"gomaxprocs"`
	NumCPU           int    `json:"num_cpu"`
	HeapObjectsBytes uint64 `json:"heap_objects_bytes"`
	HeapSysBytes     uint64 `json:"heap_sys_bytes"`
	TotalAllocBytes  uint64 `json:"total_alloc_bytes"`
	GCCycles         uint32 `json:"gc_cycles"`
	GCPauseTotalNS   uint64 `json:"gc_pause_total_ns"`
}

// New returns a manifest stamped with the current time and build info.
// The caller fills Config, TotalWallNS, Stages, and Reports.
func New() *Manifest {
	return &Manifest{
		Schema:    Schema,
		CreatedAt: time.Now().UTC(),
		Build:     CollectBuild(),
	}
}

// AddProcess adds the process-wide sections a run artifact carries: a
// snapshot of the whole obs metric registry (the cache hit/miss counters
// among everything else), runtime/GC state (a stop-the-world
// ReadMemStats), and the flight recorder when it holds anything. It
// returns m.
func (m *Manifest) AddProcess() *Manifest {
	metrics := obs.SnapshotMetrics()
	rt := CollectRuntime()
	m.Metrics, m.Runtime = &metrics, &rt
	if snap := obs.DefaultRecorder().Snapshot(); len(snap.Requests) > 0 || len(snap.Logs) > 0 {
		m.Recorder = &snap
	}
	return m
}

// CollectBuild returns the binary's build information, read once per
// process. Absent VCS stamps (test binaries, go run) leave the revision
// fields empty.
func CollectBuild() BuildInfo { return buildInfo() }

var buildInfo = sync.OnceValue(func() BuildInfo {
	b := BuildInfo{GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.Module = info.Main.Path
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.time":
			b.VCSTime = s.Value
		case "vcs.modified":
			b.Dirty = s.Value == "true"
		}
	}
	return b
})

// CollectRuntime snapshots memory and GC statistics.
func CollectRuntime() RuntimeSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeSnapshot{
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		HeapObjectsBytes: ms.HeapAlloc,
		HeapSysBytes:     ms.HeapSys,
		TotalAllocBytes:  ms.TotalAlloc,
		GCCycles:         ms.NumGC,
		GCPauseTotalNS:   ms.PauseTotalNs,
	}
}

// Validate checks the invariants the schema documents. Read manifests
// (benchdiff inputs, CI artifacts) should be validated before use.
func (m *Manifest) Validate() error {
	if m == nil {
		return fmt.Errorf("runinfo: nil manifest")
	}
	if m.Schema != Schema {
		return fmt.Errorf("runinfo: schema %q, want %q", m.Schema, Schema)
	}
	if m.CreatedAt.IsZero() {
		return fmt.Errorf("runinfo: created_at is zero")
	}
	if m.Build.GoVersion == "" {
		return fmt.Errorf("runinfo: build.go_version is empty")
	}
	if m.TotalWallNS < 0 {
		return fmt.Errorf("runinfo: negative total_wall_ns %d", m.TotalWallNS)
	}
	seen := map[string]bool{}
	for i, st := range m.Stages {
		if st.Name == "" {
			return fmt.Errorf("runinfo: stage %d has no name", i)
		}
		if seen[st.Name] {
			return fmt.Errorf("runinfo: duplicate stage %q", st.Name)
		}
		seen[st.Name] = true
		if st.Calls <= 0 {
			return fmt.Errorf("runinfo: stage %q calls = %d, want > 0", st.Name, st.Calls)
		}
		if st.WallNS < 0 {
			return fmt.Errorf("runinfo: stage %q negative wall_ns", st.Name)
		}
	}
	for id, digest := range m.Reports {
		if len(digest) != 64 {
			return fmt.Errorf("runinfo: report %q digest %q is not sha256 hex", id, digest)
		}
	}
	if m.Recorder != nil {
		for i, req := range m.Recorder.Requests {
			if req.ID == "" {
				return fmt.Errorf("runinfo: recorder request %d has no id", i)
			}
			if req.DurationNS < 0 {
				return fmt.Errorf("runinfo: recorder request %q negative duration_ns", req.ID)
			}
		}
	}
	return nil
}

// Write marshals the manifest as indented JSON and renames it into
// place, so a crashed run never leaves a truncated manifest behind.
func (m *Manifest) Write(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("runinfo: marshal: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".manifest-*.json")
	if err != nil {
		return fmt.Errorf("runinfo: write: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("runinfo: write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("runinfo: write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("runinfo: write: %w", err)
	}
	return nil
}

// Read loads and validates a manifest file.
func Read(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runinfo: read: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("runinfo: parse %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}
