package runinfo

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpa/internal/obs"
)

// sample returns a minimal valid manifest.
func sample() *Manifest {
	m := New()
	m.Config = RunConfig{Seed: 1, Networks: 60, WindowStart: "2013-08", WindowEnd: "2014-12"}
	m.TotalWallNS = 12345
	m.Stages = []Stage{
		{Name: "generate", Calls: 1, WallNS: 1000, AllocBytes: 4096,
			Counters: map[string]float64{"networks": 60}},
		{Name: "inference", Calls: 1, WallNS: 2000},
	}
	m.Reports = map[string]string{
		"table2": strings.Repeat("ab", 32),
	}
	return m
}

func TestNewFillsProvenance(t *testing.T) {
	m := New()
	if m.Schema != Schema {
		t.Errorf("Schema = %q, want %q", m.Schema, Schema)
	}
	if m.CreatedAt.IsZero() || time.Since(m.CreatedAt) > time.Minute {
		t.Errorf("CreatedAt = %v, want ~now", m.CreatedAt)
	}
	if m.Build.GoVersion == "" {
		t.Error("Build.GoVersion is empty")
	}
	// New describes the run, not the process: the process-wide sections
	// appear only after AddProcess.
	if m.Metrics != nil || m.Runtime != nil || m.Recorder != nil {
		t.Errorf("New captured process sections: metrics %v, runtime %v, recorder %v",
			m.Metrics != nil, m.Runtime != nil, m.Recorder != nil)
	}
	if m.AddProcess() != m {
		t.Fatal("AddProcess does not return its manifest")
	}
	if m.Runtime == nil || m.Runtime.GoMaxProcs < 1 || m.Runtime.NumCPU < 1 {
		t.Errorf("Runtime = %+v, want populated", m.Runtime)
	}
	if m.Metrics == nil || m.Metrics.Counters == nil {
		t.Error("Metrics snapshot not taken")
	}
}

// TestNewSnapshotsRegistry: AddProcess snapshots the whole registry.
func TestNewSnapshotsRegistry(t *testing.T) {
	obs.GetCounter("runinfo_test.events").Add(5)
	m := New().AddProcess()
	if got := m.Metrics.Counters["runinfo_test.events"]; got != 5 {
		t.Errorf("manifest counter = %d, want 5", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := sample()
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalWallNS != m.TotalWallNS || len(got.Stages) != len(m.Stages) {
		t.Errorf("round trip lost data: %+v", got)
	}
	if got.Stages[0].Counters["networks"] != 60 {
		t.Errorf("stage counters lost: %+v", got.Stages[0])
	}
	if got.Reports["table2"] != m.Reports["table2"] {
		t.Errorf("report digests lost: %+v", got.Reports)
	}

	// The artifact must be indented JSON ending in a newline (diffable,
	// cat-able).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "{\n  \"schema\"") || !strings.HasSuffix(string(data), "\n") {
		t.Errorf("manifest not in canonical indented form:\n%.80s", data)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Manifest)
		want string
	}{
		{"wrong schema", func(m *Manifest) { m.Schema = "mpa.run-manifest/v0" }, "schema"},
		{"zero time", func(m *Manifest) { m.CreatedAt = time.Time{} }, "created_at"},
		{"no go version", func(m *Manifest) { m.Build.GoVersion = "" }, "go_version"},
		{"negative total", func(m *Manifest) { m.TotalWallNS = -1 }, "total_wall_ns"},
		{"unnamed stage", func(m *Manifest) { m.Stages[0].Name = "" }, "no name"},
		{"duplicate stage", func(m *Manifest) { m.Stages[1].Name = m.Stages[0].Name }, "duplicate"},
		{"zero calls", func(m *Manifest) { m.Stages[0].Calls = 0 }, "calls"},
		{"negative wall", func(m *Manifest) { m.Stages[0].WallNS = -5 }, "wall_ns"},
		{"bad digest", func(m *Manifest) { m.Reports["table2"] = "xyz" }, "sha256"},
	}
	for _, tc := range cases {
		m := sample()
		tc.mut(m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := sample().Validate(); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	m := sample()
	m.Schema = "bogus"
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Write(path); err == nil {
		t.Fatal("Write accepted an invalid manifest")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("invalid write left a file behind (err=%v)", err)
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := os.WriteFile(path, []byte(`{"schema": "mpa.run-man`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("Read accepted truncated JSON")
	}
}

// TestRecorderSection: once anything lands in the process flight
// recorder, AddProcess embeds a snapshot under "recorder", it round-trips
// through Write/Read, and Validate rejects malformed entries.
func TestRecorderSection(t *testing.T) {
	sp := obs.NewRoot("runinfo_test_stage")
	sp.End()
	obs.DefaultRecorder().Record(sp, obs.RequestMeta{ID: "stage-000-runinfo_test_stage"})

	m := sample()
	m.Recorder = nil // sample() may or may not have seen the record above
	if New().Recorder != nil {
		t.Fatal("New embedded the process recorder")
	}
	m2 := New().AddProcess()
	if m2.Recorder == nil {
		t.Fatal("manifest missing recorder section after a recorded stage")
	}
	found := false
	for _, r := range m2.Recorder.Requests {
		if r.ID == "stage-000-runinfo_test_stage" {
			found = true
		}
	}
	if !found {
		t.Errorf("recorder section lacks the recorded stage: %+v", m2.Recorder.Requests)
	}

	m.Recorder = m2.Recorder
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Recorder == nil || len(got.Recorder.Requests) != len(m.Recorder.Requests) {
		t.Errorf("recorder section lost in round trip: %+v", got.Recorder)
	}

	bad := sample()
	bad.Recorder = &obs.RecorderSnapshot{Requests: []obs.RequestSummary{{ID: ""}}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "no id") {
		t.Errorf("Validate() = %v, want error for empty recorder request id", err)
	}
	bad.Recorder = &obs.RecorderSnapshot{Requests: []obs.RequestSummary{{ID: "x", DurationNS: -1}}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "duration_ns") {
		t.Errorf("Validate() = %v, want error for negative recorder duration", err)
	}
}

// TestSchemaFieldNames pins the documented wire names: renames are
// schema breaks and must bump the version.
func TestSchemaFieldNames(t *testing.T) {
	data, err := json.Marshal(sample().AddProcess())
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"schema", "created_at", "build", "config", "total_wall_ns",
		"stages", "metrics", "runtime", "report_digests",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("top-level key %q missing from wire form", key)
		}
	}
}
