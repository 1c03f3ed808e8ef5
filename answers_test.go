package mpa_test

// The answers disk tier (answers.go) seen through the /v1 endpoints that
// use it: a daemon rebuilt over the same data answers every persisted
// key from disk with the bytes and ETag a cold daemon computes, and the
// disk key covers everything such an answer reads.

import (
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mpa"
	"mpa/internal/ingest"
	"mpa/internal/obs"
	"mpa/internal/osp"
	"mpa/internal/serve"
	"mpa/internal/tenant"
)

// answersOrg is the suite's organization: eight networks over three
// months.
func answersOrg() *osp.OSP {
	p := osp.Small(12)
	p.Networks = 8
	p.End = p.Start.Add(2)
	return osp.Generate(p)
}

// build returns a framework over o's records from start through end,
// with the answers tier under dir ("" for none).
func build(t *testing.T, o *osp.OSP, end mpa.Month, dir string) *mpa.Framework {
	t.Helper()
	arch, log := o.Archive, o.Tickets
	if end != o.Params.End {
		arch, log = ingest.Truncate(o.Archive, o.Tickets, end)
	}
	f, err := mpa.NewCached(o.Inventory, arch, log, o.Params.Start, end, mpa.CacheConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// server fronts f with a one-org daemon recording into rec.
func server(t *testing.T, f *mpa.Framework, rec *obs.Recorder) *serve.Server {
	t.Helper()
	reg, err := tenant.New([]*tenant.Org{{Name: "org", F: f}})
	if err != nil {
		t.Fatal(err)
	}
	return serve.NewSharded(reg, serve.Config{Recorder: rec})
}

// answer is one 200 response: body, ETag and request ID.
type answer struct {
	body      []byte
	etag, rid string
}

// fetch answers one GET on s.
func fetch(s *serve.Server, path string) (answer, error) {
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.Code != http.StatusOK {
		return answer{}, fmt.Errorf("GET %s: status %d: %s", path, w.Code, w.Body.Bytes())
	}
	return answer{w.Body.Bytes(), w.Header().Get("ETag"), w.Header().Get("X-Request-ID")}, nil
}

func get(t *testing.T, s *serve.Server, path string) answer {
	t.Helper()
	a, err := fetch(s, path)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// persistedPaths lists one request per persisted key of f's current
// snapshot: the ranking, every practice's causal analysis, every
// network-month's prediction and every report that reads only Params
// and Data.
func persistedPaths(f *mpa.Framework) []string {
	paths := []string{"/v1/rank"}
	for _, m := range mpa.MetricNames {
		paths = append(paths, "/v1/causal?practice="+m)
	}
	st := f.State()
	for _, n := range st.Dataset.Networks() {
		for _, m := range st.Window {
			paths = append(paths, "/v1/predict?network="+n+"&month="+m.String())
		}
	}
	for _, id := range mpa.ExperimentIDs() {
		if mpa.ReportReadsOnlyData(id) {
			paths = append(paths, "/v1/report/"+id)
		}
	}
	return paths
}

// answerAll answers every path on s, from four clients at once, so
// distinct keys read and write the disk tier side by side.
func answerAll(t *testing.T, s *serve.Server, paths []string) map[string]answer {
	t.Helper()
	out := make(map[string]answer, len(paths))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(paths); i += 4 {
				a, err := fetch(s, paths[i])
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				out[paths[i]] = a
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return out
}

// sameAnswers fails unless got holds want's bytes and ETag for every path.
func sameAnswers(t *testing.T, what string, got, want map[string]answer) {
	t.Helper()
	for p, w := range want {
		g := got[p]
		if !bytes.Equal(g.body, w.body) || g.etag != w.etag {
			t.Errorf("%s: %s differs from the cold answer (ETag %s, want %s)", what, p, g.etag, w.etag)
		}
	}
}

// entries returns the answers tier's files under dir, by path.
func entries(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	root := filepath.Join(dir, "answers")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		out[path] = b
		return err
	})
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return out
}

// TestAnswersFromDisk: a framework rebuilt over the same data with the
// same cache directory answers every persisted key from disk, with the
// bytes and ETag of a cold framework that has no cache, and without
// training a model, running a causal analysis or an experiment. Its
// manifest lists the same report digests as the cold one's, and each
// request's stage span counts its disk hit.
func TestAnswersFromDisk(t *testing.T) {
	o := answersOrg()
	dir := t.TempDir()
	cold := build(t, o, o.Params.End, "")
	paths := persistedPaths(cold)
	want := answerAll(t, server(t, cold, nil), paths)

	answerAll(t, server(t, build(t, o, o.Params.End, dir), nil), paths)
	stored := entries(t, dir)
	if len(stored) != len(paths) {
		t.Fatalf("the answers tier holds %d entries after %d persisted answers", len(stored), len(paths))
	}
	// Per-network bodies stay in memory.
	get(t, server(t, build(t, o, o.Params.End, dir), nil), "/v1/network?network="+cold.State().Dataset.Networks()[0])
	if n := len(entries(t, dir)); n != len(paths) {
		t.Errorf("a per-network answer grew the answers tier to %d entries, want %d", n, len(paths))
	}

	hits := obs.GetCounter("cache.answers.disk_hits")
	before := hits.Value()
	rec := obs.NewRecorder()
	warm := build(t, o, o.Params.End, dir)
	s := server(t, warm, rec)
	rank := get(t, s, "/v1/rank")
	tree := rec.Tree(rank.rid)
	if tree == nil {
		t.Fatal("the rank request's span tree was not retained")
	}
	var counted bool
	for _, c := range tree.Children() {
		if c.Name() == "rank_practices" {
			counted = c.Counter("disk_hits") == 1
		}
	}
	if !counted {
		t.Errorf("the rank request's rank_practices span does not count its disk hit: %+v", obs.TreeOf(tree))
	}
	sameAnswers(t, "disk-warm", answerAll(t, s, paths), want)
	if d := hits.Value() - before; d != int64(len(paths)) {
		t.Errorf("cache.answers.disk_hits grew by %d, want %d", d, len(paths))
	}
	for _, st := range warm.PipelineStats().Stages {
		if st.Name == "train_model" || st.Name == "causal" || strings.HasPrefix(st.Name, "experiment:") {
			t.Errorf("the disk-warm framework ran stage %s %d times", st.Name, st.Calls)
		}
	}
	if g, w := warm.Manifest().Reports, cold.Manifest().Reports; !reflect.DeepEqual(g, w) {
		t.Errorf("disk-warm report_digests %v, want the cold framework's %v", g, w)
	}
}

// TestAnswersReadOnlyParamsAndData: every persisted answer built from a
// snapshot that holds nothing but Params and Data equals the full
// snapshot's, so a disk key covering those two (and the code) covers
// everything the answer reads.
func TestAnswersReadOnlyParamsAndData(t *testing.T) {
	o := answersOrg()
	full := build(t, o, o.Params.End, "")
	paths := persistedPaths(full)
	sameAnswers(t, "Params and Data only", answerAll(t, server(t, mpa.DataOnly(full), nil), paths),
		answerAll(t, server(t, full, nil), paths))
}

// TestAnswersCorruptEntry: an entry whose body no longer matches the
// hash stored with it is counted as corrupt, recomputed, answered with
// the correct bytes and rewritten.
func TestAnswersCorruptEntry(t *testing.T) {
	o := answersOrg()
	dir := t.TempDir()
	const path = "/v1/report/table3"
	want := get(t, server(t, build(t, o, o.Params.End, dir), nil), path)
	stored := entries(t, dir)
	if len(stored) != 1 {
		t.Fatalf("the answers tier holds %d entries, want 1", len(stored))
	}
	for file, b := range stored {
		bad := bytes.Clone(b)
		bad[len(bad)-10] ^= 0x20
		if err := os.WriteFile(file, bad, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	corrupt := obs.GetCounter("cache.answers.disk_corrupt")
	before := corrupt.Value()
	f := build(t, o, o.Params.End, dir)
	got := get(t, server(t, f, nil), path)
	if !bytes.Equal(got.body, want.body) || got.etag != want.etag {
		t.Errorf("the answer over a corrupt entry differs from the computed one")
	}
	if d := corrupt.Value() - before; d != 1 {
		t.Errorf("cache.answers.disk_corrupt grew by %d, want 1", d)
	}
	if f.StageCalls("experiment:table3") != 1 {
		t.Errorf("table3 ran %d times over a corrupt entry, want 1", f.StageCalls("experiment:table3"))
	}
	if !reflect.DeepEqual(entries(t, dir), stored) {
		t.Errorf("the corrupt entry was not rewritten with the computed body")
	}
}

// TestAnswersBuildIdentity: answers written by a different build are
// never read; the new build computes and writes its own.
func TestAnswersBuildIdentity(t *testing.T) {
	o := answersOrg()
	dir := t.TempDir()
	get(t, server(t, build(t, o, o.Params.End, dir), nil), "/v1/rank")
	restore := mpa.SetBuildIdentity("another build")
	defer restore()
	hits := obs.GetCounter("cache.answers.disk_hits")
	before := hits.Value()
	f := build(t, o, o.Params.End, dir)
	get(t, server(t, f, nil), "/v1/rank")
	if d := hits.Value() - before; d != 0 {
		t.Errorf("another build read %d answers from disk, want none", d)
	}
	if f.StageCalls("mi_ranking") != 1 {
		t.Errorf("another build ranked %d times, want 1", f.StageCalls("mi_ranking"))
	}
	if n := len(entries(t, dir)); n != 2 {
		t.Errorf("the answers tier holds %d entries, want one per build", n)
	}
}

// TestAnswersAfterIngest: an ingest changes the dataset digest, so the
// answers of the spliced snapshot are computed, not read from the
// entries of the one before it, even when the ingest grows the final
// month in place and leaves Params as they were. They equal a cold
// rebuild's over the same months (splice ≡ rebuild), and a framework
// built cold over those months with the same directory reads them from
// disk.
func TestAnswersAfterIngest(t *testing.T) {
	o := answersOrg()
	dir := t.TempDir()
	f := build(t, o, o.Params.End.Add(-1), dir)
	s := server(t, f, nil)
	u := ingest.SliceMonth(o.Archive, o.Tickets, o.Params.End)
	if len(u.Snapshots) < 2 || len(u.Tickets) == 0 {
		t.Fatalf("the final month has %d snapshots and %d tickets; the test splits it", len(u.Snapshots), len(u.Tickets))
	}
	half := len(u.Snapshots) / 2
	head := &ingest.Update{Month: u.Month, Snapshots: u.Snapshots[:half]}
	tail := &ingest.Update{Month: u.Month, Snapshots: u.Snapshots[half:], Tickets: u.Tickets}
	if _, err := f.Ingest(head); err != nil {
		t.Fatal(err)
	}
	answerAll(t, s, persistedPaths(f))
	digest := mpa.DataDigest(f)
	if _, err := f.Ingest(tail); err != nil {
		t.Fatal(err)
	}
	if mpa.DataDigest(f) == digest {
		t.Fatal("an ingest left the dataset digest unchanged")
	}
	cold := build(t, o, o.Params.End, "")
	paths := persistedPaths(cold)
	want := answerAll(t, server(t, cold, nil), paths)

	hits := obs.GetCounter("cache.answers.disk_hits")
	before := hits.Value()
	sameAnswers(t, "spliced", answerAll(t, s, paths), want)
	if d := hits.Value() - before; d != 0 {
		t.Errorf("the spliced snapshot read %d answers from disk, want none", d)
	}
	before = hits.Value()
	sameAnswers(t, "rebuilt over the spliced entries", answerAll(t, server(t, build(t, o, o.Params.End, dir), nil), paths), want)
	if d := hits.Value() - before; d != int64(len(paths)) {
		t.Errorf("a rebuild read %d answers from disk, want %d", d, len(paths))
	}
}

// TestAnswersKeyOnParams: two frameworks over the same cases but with
// different Params never share an answer. A synthetic organization's
// Params carry its seed, which seeds the reports' cross-validation; a
// framework built over the same generated records has none.
func TestAnswersKeyOnParams(t *testing.T) {
	o := answersOrg()
	p := o.Params
	dir := t.TempDir()
	records := build(t, o, p.End, dir)
	paths := persistedPaths(records)
	answerAll(t, server(t, records, nil), paths)
	cfg := mpa.Config{Seed: p.Seed, Networks: p.Networks, Start: p.Start, End: p.End}
	cold, err := mpa.NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache.Dir = dir
	synthetic, err := mpa.NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mpa.DataDigest(synthetic) != mpa.DataDigest(records) {
		t.Fatal("the synthetic organization's cases differ from its records'")
	}
	hits := obs.GetCounter("cache.answers.disk_hits")
	before := hits.Value()
	sameAnswers(t, "synthetic", answerAll(t, server(t, synthetic, nil), paths), answerAll(t, server(t, cold, nil), paths))
	if d := hits.Value() - before; d != 0 {
		t.Errorf("a framework with other Params read %d answers from disk, want none", d)
	}
}

// TestAnswersUnknownPredictSkipsDisk: a prediction for a network or
// month the snapshot has no case for answers 404 from the case index
// alone. It counts no disk miss and writes nothing under <dir>/answers.
func TestAnswersUnknownPredictSkipsDisk(t *testing.T) {
	o := answersOrg()
	dir := t.TempDir()
	s := server(t, build(t, o, o.Params.End, dir), nil)
	misses := obs.GetCounter("cache.answers.disk_misses")
	before := misses.Value()
	network := o.Inventory.Networks[0].Name
	for _, path := range []string{
		"/v1/predict?network=nope",
		"/v1/predict?network=nope",
		"/v1/predict?network=" + network + "&month=1999-01",
	} {
		if _, err := fetch(s, path); err == nil || !strings.Contains(err.Error(), "status 404") {
			t.Errorf("GET %s: %v, want a 404", path, err)
		}
	}
	if d := misses.Value() - before; d != 0 {
		t.Errorf("unknown predictions counted %d disk misses, want 0", d)
	}
	if n := len(entries(t, dir)); n != 0 {
		t.Errorf("unknown predictions left %d entries under answers/, want 0", n)
	}
}
