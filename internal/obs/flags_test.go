package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStopTraceWriteAtomic pins the regression where a failing trace
// export left a truncated -trace file behind: the write goes through a
// temp file, so on failure the destination must not exist and no temp
// files may linger. On success the file holds the stage trees that
// ended between Start and Stop, and with no stage there is no file.
func TestStopTraceWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	boom := errors.New("exporter failed midway")

	// Partial output before the failure — exactly the shape that used to
	// leave a truncated file.
	err := writeFileAtomic(path, "trace", func(w io.Writer) error {
		fmt.Fprint(w, `{"traceEvents":[`)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("write error = %v, want wrapped %v", err, boom)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Errorf("failed trace write left %s behind", path)
	}
	assertNoLeftovers(t, dir)

	stopAfterStage := func(p *Flags) error {
		t.Helper()
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		NewStageTable("pipeline").Start("generate").End()
		return p.Stop()
	}
	if err := stopAfterStage(&Flags{TracePath: filepath.Join(dir, "no-such-subdir", "trace.json")}); err == nil {
		t.Error("Stop succeeded writing into a missing directory")
	}
	assertNoLeftovers(t, dir)

	// Success path: the file appears with the stage's event.
	if err := stopAfterStage(&Flags{TracePath: path}); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil || len(tf.TraceEvents) != 1 ||
		tf.TraceEvents[0].Name != "generate" || tf.TraceEvents[0].Ts != 0 {
		t.Errorf("trace = %s (err %v), want the one generate stage at ts 0", data, err)
	}
	assertNoLeftovers(t, dir, "trace.json")

	// No stage ended: no trace file.
	empty := filepath.Join(dir, "empty.json")
	p := &Flags{TracePath: empty}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if _, statErr := os.Stat(empty); !os.IsNotExist(statErr) {
		t.Error("trace written with no stage")
	}
}

// TestStopMemProfileAtomic covers the same invariant for -memprofile:
// an unwritable destination directory errors without leaving anything.
func TestStopMemProfileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mem.pprof")
	p := &Flags{MemProfile: path}
	if err := p.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("heap profile is empty")
	}
	assertNoLeftovers(t, dir, "mem.pprof")

	p = &Flags{MemProfile: filepath.Join(dir, "no-such-subdir", "mem.pprof")}
	if err := p.Stop(); err == nil {
		t.Error("Stop succeeded writing into a missing directory")
	}
}

// assertNoLeftovers fails if dir contains anything beyond the allowed
// names — in particular no ".<name>-*" temp files from writeFileAtomic.
func assertNoLeftovers(t *testing.T, dir string, allowed ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		ok := false
		for _, a := range allowed {
			if e.Name() == a {
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected leftover file %q (temp file not cleaned up?)", e.Name())
		}
	}
}

// TestWriteFileAtomicRenameTarget sanity-checks the helper directly:
// content lands at the destination byte-for-byte.
func TestWriteFileAtomicRenameTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := writeFileAtomic(path, "test", func(w io.Writer) error {
		_, err := io.WriteString(w, strings.Repeat("x", 1000))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1000 {
		t.Errorf("wrote %d bytes, want 1000", len(data))
	}
}
