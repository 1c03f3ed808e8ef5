package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mpa"
	"mpa/internal/ingest"
	"mpa/internal/runinfo"
)

// tiny is the scale every test runs at: three networks over two months.
var tiny = []string{"-networks", "3", "-months", "2"}

// mpaRun runs the command under ctx with tiny prepended to args and
// returns its exit status, stdout and stderr.
func mpaRun(ctx context.Context, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(ctx, append(append([]string{}, tiny...), args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// reports renders the experiments ids of a framework built from the
// tiny config the way the command prints them.
func reports(t *testing.T, ids ...string) string {
	t.Helper()
	cfg := mpa.DefaultConfig(1)
	cfg.Networks = 3
	start, _ := mpa.StudyWindow()
	cfg.Start, cfg.End = start, start.Add(1)
	f, err := mpa.NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, res := range f.RunExperiments(ids) {
		if !res.OK {
			t.Fatalf("experiment %q unknown", res.ID)
		}
		b.WriteString(res.Report.Title + "\n" + strings.Repeat("=", len(res.Report.Title)) + "\n" + res.Report.Text + "\n")
	}
	return b.String()
}

func TestSubcommands(t *testing.T) {
	exportDir := filepath.Join(t.TempDir(), "export")
	contains := func(subs ...string) func(*testing.T, string) {
		return func(t *testing.T, out string) {
			for _, s := range subs {
				if !strings.Contains(out, s) {
					t.Errorf("stdout lacks %q:\n%s", s, out)
				}
			}
		}
	}
	equals := func(want string) func(*testing.T, string) {
		return func(t *testing.T, out string) {
			if out != want {
				t.Errorf("stdout:\n%s\nwant:\n%s", out, want)
			}
		}
	}
	cases := []struct {
		name   string
		args   []string
		stdout func(*testing.T, string)
	}{
		{"experiment all", []string{"-id", "all", "experiment"}, equals(reports(t, mpa.ExperimentIDs()...))},
		{"experiment list", []string{"experiment", "-id", "table3, table2,figure9"}, equals(reports(t, "table3", "table2", "figure9"))},
		{"experiment ids", []string{"experiment"}, equals("available experiments:\n  " + strings.Join(mpa.ExperimentIDs(), "\n  ") + "\n")},
		{"summary", []string{"summary"}, equals(reports(t, "table2"))},
		{"characterize", []string{"characterize"}, equals(reports(t, "figure11", "figure12", "figure13"))},
		{"rank", []string{"rank"}, contains("Practices by average monthly mutual information with health:\n 1. ", "MI=")},
		{"causal", []string{"causal", "-practice", "no_vlans"}, contains("Causal analysis of No. of VLANs:\n  1:2: ")},
		{"predict", []string{"predict"}, contains("2-class model: accuracy", "5-class model: accuracy", "Healthy    precision")},
		{"online", []string{"online", "-history", "1"}, contains("2-class online accuracy (M=1): ", "5-class online accuracy (M=1): ")},
		{"online short window", []string{"online"}, equals("2-class: window too short for history 3\n5-class: window too short for history 3\n")},
		{"export", []string{"export", "-dir", exportDir}, equals("wrote inventory.json, tickets.csv, and snapshots/ under " + exportDir + "\n")},
		{"report", []string{"report"}, contains("Management-plane report card: net000\n")},
		{"report network", []string{"report", "-network", "net002"}, contains("Management-plane report card: net002\n")},
		{"stats", []string{"stats"}, contains("generate", "inference", "Flight recorder — slowest stages of this run:")},
		{"nextmonth", []string{"nextmonth"}, func(t *testing.T, out string) {
			var u ingest.Update
			if err := json.Unmarshal([]byte(out), &u); err != nil {
				t.Fatalf("nextmonth output is not an update: %v", err)
			}
			if u.Month != "2013-10" || len(u.Snapshots) == 0 {
				t.Errorf("update month %q with %d snapshots, want 2013-10 with some", u.Month, len(u.Snapshots))
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := mpaRun(context.Background(), c.args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			c.stdout(t, stdout)
		})
	}
	for _, name := range []string{"inventory.json", "tickets.csv", "snapshots"} {
		if _, err := os.Stat(filepath.Join(exportDir, name)); err != nil {
			t.Errorf("export: %v", err)
		}
	}
}

// TestErrors checks each failure's exit status and message, and that a
// failure prints nothing on stdout.
func TestErrors(t *testing.T) {
	orgsFile := filepath.Join(t.TempDir(), "orgs.json")
	if err := os.WriteFile(orgsFile, []byte(`{"orgs":[{"name":"a","seed":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string
	}{
		{"no subcommand", nil, 2, "usage: mpa [flags] summary|"},
		{"unknown subcommand", []string{"bogus"}, 2, "mpa: unknown subcommand \"bogus\"\nusage: "},
		{"bad flag", []string{"-bogus", "rank"}, 2, "flag provided but not defined: -bogus"},
		{"bad flag after subcommand", []string{"rank", "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"extra argument", []string{"rank", "-seed", "2", "extra"}, 2, "mpa: unexpected argument \"extra\" after rank\n"},
		{"zero networks", []string{"-networks", "0", "rank"}, 2, "mpa: -networks must be >= 1 (got 0)\n"},
		{"zero months", []string{"rank", "-months", "0"}, 2, "mpa: -months must be >= 1 (got 0)\n"},
		{"orgs without serve", []string{"-orgs", "a=1", "rank"}, 2, "mpa: -orgs/-orgs-config apply only to the serve subcommand\n"},
		{"orgs-config with watch", []string{"-orgs-config", orgsFile, "watch"}, 2, "mpa: -orgs/-orgs-config apply only to the serve subcommand\n"},
		{"orgs and orgs-config", []string{"-orgs", "a=1", "-orgs-config", orgsFile, "serve"}, 2, "mpa: use -orgs or -orgs-config, not both\n"},
		{"unknown experiment", []string{"-id", "bogus,table2", "experiment"}, 2, "mpa: unknown experiment \"bogus\"; run `mpa experiment` for the list\n"},
		{"unknown practice", []string{"-practice", "bogus", "causal"}, 1, "mpa: unknown practice metric \"bogus\"\n"},
		{"unknown practice stats", []string{"stats", "-practice", "bogus"}, 1, "mpa: unknown practice metric \"bogus\"\n"},
		{"unknown network", []string{"report", "-network", "bogus"}, 1, "mpa: "},
		{"bad orgs", []string{"-orgs", "A=x", "serve"}, 1, "mpa: tenant: invalid org name \"A\""},
		{"missing orgs-config", []string{"-orgs-config", orgsFile + ".missing", "serve"}, 1, "mpa: tenant: read registry config: "},
		{"export into a file", []string{"export", "-dir", orgsFile}, 1, "mpa: "},
		{"unwritable profile", []string{"-cpuprofile", filepath.Join(orgsFile, "cpu.out"), "rank"}, 1, "mpa: obs: cpuprofile: "},
		{"unwritable manifest", []string{"-manifest", filepath.Join(orgsFile, "m.json"), "summary"}, 1, "mpa: "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := mpaRun(context.Background(), c.args...)
			if code != c.code {
				t.Errorf("exit %d, want %d; stderr:\n%s", code, c.code, stderr)
			}
			if !strings.HasPrefix(stderr, c.stderr) {
				t.Errorf("stderr:\n%s\nwant prefix:\n%s", stderr, c.stderr)
			}
			if strings.Contains(stderr, "mpa: mpa:") {
				t.Errorf("stderr doubles the prefix:\n%s", stderr)
			}
			if c.code == 2 && stdout != "" {
				t.Errorf("usage error printed on stdout:\n%s", stdout)
			}
		})
	}
}

func TestHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h exits %d, want 0", code)
	}
	if n := strings.Count(stderr.String(), "\n  -"); n != 26 {
		t.Errorf("-h lists %d flags, want 26:\n%s", n, stderr.String())
	}
}

// TestOutputsOnEveryExit checks that the profiles and the trace are
// complete whichever way the run ends: a failed analysis, the id
// listing, a run that builds no framework, and a plain success.
func TestOutputsOnEveryExit(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		code      int
		wantTrace bool
	}{
		{"failed causal", []string{"-practice", "bogus", "causal"}, 1, true},
		{"id listing", []string{"experiment"}, 0, false},
		{"nextmonth", []string{"nextmonth"}, 0, false},
		{"summary", []string{"summary"}, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cpu, mem, trace := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out"), filepath.Join(dir, "trace.json")
			args := append([]string{"-cpuprofile", cpu, "-memprofile", mem, "-trace", trace}, c.args...)
			if code, _, stderr := mpaRun(context.Background(), args...); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr)
			}
			for _, p := range []string{cpu, mem} {
				if st, err := os.Stat(p); err != nil || st.Size() == 0 {
					t.Errorf("%s: want a non-empty profile, got %v (err %v)", filepath.Base(p), st, err)
				}
			}
			b, err := os.ReadFile(trace)
			if !c.wantTrace {
				if err == nil {
					t.Errorf("trace written without a framework")
				}
				return
			}
			var tr struct{ TraceEvents []map[string]any }
			if err != nil || json.Unmarshal(b, &tr) != nil || len(tr.TraceEvents) == 0 {
				t.Errorf("trace: want non-empty trace-event JSON, got %d bytes (err %v)", len(b), err)
			}
		})
	}
}

func TestManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	if code, _, stderr := mpaRun(context.Background(), "-manifest", path, "-id", "table2,table3", "experiment"); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	m, err := runinfo.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Config.Extra["command"] != "mpa experiment" || m.Config.Networks != 3 || m.Config.WindowEnd != "2013-09" {
		t.Errorf("manifest config = %+v", m.Config)
	}
	if _, ok := m.Reports["table3"]; !ok {
		t.Errorf("manifest reports %v lack table3", m.Reports)
	}
	// The run artifact carries the process sections: the registry
	// snapshot (with the query memo's hit/miss counters), runtime state
	// and the flight recorder the run's stages landed in.
	if m.Metrics == nil || m.Runtime == nil || m.Recorder == nil {
		t.Fatalf("manifest lacks process sections: metrics %v, runtime %v, recorder %v",
			m.Metrics != nil, m.Runtime != nil, m.Recorder != nil)
	}
	for _, name := range []string{"cache.query.mem_hits", "cache.query.mem_misses"} {
		if _, ok := m.Metrics.Counters[name]; !ok {
			t.Errorf("counter %q missing from the manifest metrics snapshot", name)
		}
	}
}

func TestServe(t *testing.T) {
	orgsFile := filepath.Join(t.TempDir(), "orgs.json")
	if err := os.WriteFile(orgsFile, []byte(`{"orgs":[{"name":"east","seed":2},{"name":"west","seed":3,"networks":2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		args []string
		orgs string
	}{
		{"default org", nil, "default"},
		{"orgs", []string{"-orgs", "a=1,b=2:2:1"}, "a, b"},
		{"orgs-config", []string{"-orgs-config", orgsFile}, "east, west"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stdout, stderr := mpaRun(ctx, append([]string{"serve", "-addr", "127.0.0.1:0"}, c.args...)...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			if want := "mpa: serving " + c.orgs + " on http://127.0.0.1:"; !strings.HasPrefix(stdout, want) {
				t.Errorf("stdout:\n%s\nwant prefix %q", stdout, want)
			}
		})
	}

	t.Run("address in use", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		code, stdout, stderr := mpaRun(ctx, "serve", "-addr", ln.Addr().String())
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "mpa: serve: listen ") {
			t.Errorf("exit %d, stdout %q, stderr %q; want 1, nothing, a listen error", code, stdout, stderr)
		}
	})
}

// cancelAfter is a stdout that cancels the run's context once it has
// seen n lines containing marker.
type cancelAfter struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	marker string
	n      int
	cancel context.CancelFunc
}

func (w *cancelAfter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if strings.Count(w.buf.String(), w.marker) >= w.n {
		w.cancel()
	}
	return len(p), nil
}

// watch runs the watch subcommand until stdout has shown n lines
// containing marker, or for at most a minute.
func watch(t *testing.T, marker string, n int, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out := &cancelAfter{marker: marker, n: n, cancel: cancel}
	var stderr bytes.Buffer
	args = append(append(append([]string{}, tiny...), "watch", "-addr", "127.0.0.1:0", "-poll", "10ms"), args...)
	if code := run(ctx, args, out, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if got := strings.Count(out.buf.String(), marker); got != n {
		t.Fatalf("stdout has %d %q lines, want %d:\n%s", got, marker, n, out.buf.String())
	}
	return out.buf.String()
}

func TestWatchReplay(t *testing.T) {
	out := watch(t, "mpa: replayed ", 1, "-replay", "1")
	if !strings.Contains(out, "mpa: replaying 1 synthetic months, one per 10ms\nmpa: replayed 2013-10: ") {
		t.Errorf("stdout:\n%s", out)
	}
}

func TestWatchDir(t *testing.T) {
	dir := t.TempDir()
	code, update, stderr := mpaRun(context.Background(), "nextmonth")
	if code != 0 {
		t.Fatalf("nextmonth exit %d, stderr:\n%s", code, stderr)
	}
	if err := os.WriteFile(filepath.Join(dir, "2013-10.json"), []byte(update), 0o644); err != nil {
		t.Fatal(err)
	}
	out := watch(t, "mpa: ingested ", 1, "-watch-dir", dir)
	if !strings.Contains(out, "mpa: ingested 2013-10 from 2013-10.json: ") {
		t.Errorf("stdout:\n%s", out)
	}
}

// TestREADMEInvocations runs the README's examples that put flags after
// the subcommand.
func TestREADMEInvocations(t *testing.T) {
	code, stdout, stderr := mpaRun(context.Background(), "causal", "-practice", "no_vlans")
	if code != 0 || !strings.HasPrefix(stdout, "Causal analysis of No. of VLANs:\n") {
		t.Errorf("causal -practice no_vlans: exit %d, stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	out := watch(t, "mpa: replayed ", 3, "-replay", "3")
	for _, m := range []string{"2013-10", "2013-11", "2013-12"} {
		if !strings.Contains(out, "mpa: replayed "+m+": ") {
			t.Errorf("watch -replay 3 did not replay %s:\n%s", m, out)
		}
	}
}
