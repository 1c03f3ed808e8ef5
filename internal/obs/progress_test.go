package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// installSink installs a test sink and restores the disabled default
// when the test ends.
func installSink(t *testing.T, s *ProgressSink) {
	t.Helper()
	SetProgressSink(s)
	t.Cleanup(func() { SetProgressSink(nil) })
}

// TestProgressDisabled: with no sink installed every call is a no-op on
// a nil task.
func TestProgressDisabled(t *testing.T) {
	SetProgressSink(nil)
	pt := StartProgress("stage", 10)
	if pt != nil {
		t.Fatalf("StartProgress with no sink = %v, want nil", pt)
	}
	pt.Add(5) // must not panic
	pt.Done()
}

// TestProgressConcurrent hammers one task from many goroutines (the
// -race configuration CI runs makes this a data-race probe as well as a
// correctness check).
func TestProgressConcurrent(t *testing.T) {
	var buf bytes.Buffer
	installSink(t, NewProgressSink(&buf, false, 0))

	const goroutines, per = 8, 1000
	pt := StartProgress("inference", goroutines*per)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				pt.Add(1)
			}
		}()
	}
	wg.Wait()
	pt.Done()

	if v := pt.done.Load(); v != goroutines*per {
		t.Errorf("done = %d, want %d", v, goroutines*per)
	}
	out := buf.String()
	if !strings.Contains(out, "inference 8000/8000 (100%)") {
		t.Errorf("final render missing from output; tail: %q", tail(out, 200))
	}
}

// TestProgressConcurrentTasks runs several tasks at once; the sink must
// serialize their renders without interleaving bytes within one line.
func TestProgressConcurrentTasks(t *testing.T) {
	var buf bytes.Buffer
	installSink(t, NewProgressSink(&buf, false, 0))

	stages := []string{"generate", "inference", "cv", "experiments"}
	var wg sync.WaitGroup
	for _, stage := range stages {
		wg.Add(1)
		go func(stage string) {
			defer wg.Done()
			pt := StartProgress(stage, 50)
			for i := 0; i < 50; i++ {
				pt.Add(1)
			}
			pt.Done()
		}(stage)
	}
	wg.Wait()

	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "progress: ") {
			t.Fatalf("interleaved or malformed line %q", line)
		}
	}
	for _, stage := range stages {
		if !strings.Contains(buf.String(), stage+" 50/50 (100%)") {
			t.Errorf("stage %s final render missing", stage)
		}
	}
}

// TestProgressRateLimit: within the rate-limit window only the first
// update renders, but Done always does.
func TestProgressRateLimit(t *testing.T) {
	var buf bytes.Buffer
	s := NewProgressSink(&buf, false, time.Second)
	clock := time.Unix(1000, 0)
	s.now = func() time.Time { return clock }
	installSink(t, s)

	pt := StartProgress("stage", 100)
	for i := 0; i < 99; i++ {
		pt.Add(1)
	}
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Errorf("rendered %d lines inside rate-limit window, want 1", got)
	}
	pt.Add(1)
	pt.Done()
	if !strings.Contains(buf.String(), "stage 100/100 (100%)") {
		t.Errorf("Done did not force a final render: %q", buf.String())
	}
}

// TestProgressTTY: in-place rewriting with carriage returns, padding
// over longer previous lines, and a terminating newline on Done.
func TestProgressTTY(t *testing.T) {
	var buf bytes.Buffer
	installSink(t, NewProgressSink(&buf, true, 0))

	pt := StartProgress("generate", 5)
	pt.Add(3)
	pt.Done()
	out := buf.String()
	if !strings.HasPrefix(out, "\rgenerate 3/5 (60%)") {
		t.Errorf("first render not in-place: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("Done did not terminate the status line: %q", out)
	}
	if strings.Contains(out, "progress:") {
		t.Errorf("TTY mode rendered plain-mode lines: %q", out)
	}
}

// TestProgressUnknownTotal renders a bare running count for total <= 0.
func TestProgressUnknownTotal(t *testing.T) {
	var buf bytes.Buffer
	installSink(t, NewProgressSink(&buf, false, 0))
	pt := StartProgress("scan", 0)
	pt.Add(7)
	pt.Done()
	if !strings.Contains(buf.String(), "progress: scan 7\n") {
		t.Errorf("unknown-total render wrong: %q", buf.String())
	}
}

// tail returns the last n bytes of s for error messages.
func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}
