package obs

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Live progress: long pipeline stages (generation, inference, CV folds,
// experiment fan-out) report completion counts through a process-wide
// sink so multi-minute runs are not silent. Like the rest of the
// package, reporting sites call unconditionally — with no sink installed
// (the default) StartProgress returns nil and every method is a no-op,
// so the hot paths pay one atomic load.

// ProgressSink renders progress updates onto one writer. On a TTY it
// rewrites a single status line in place; otherwise it prints plain
// lines. Rendering is rate-limited (stage completions always render), so
// per-item Add calls from tight worker loops stay cheap.
type ProgressSink struct {
	w   io.Writer
	tty bool
	min time.Duration
	now func() time.Time // injectable for tests

	mu      sync.Mutex
	last    time.Time
	lineLen int
}

// NewProgressSink builds a sink writing to w, rewriting in place when
// tty is set, rendering at most once per min (0 = every update).
func NewProgressSink(w io.Writer, tty bool, min time.Duration) *ProgressSink {
	return &ProgressSink{w: w, tty: tty, min: min, now: time.Now}
}

// progressSink is the installed process-wide sink (nil = disabled).
var progressSink atomic.Pointer[ProgressSink]

// SetProgressSink installs s as the process-wide progress sink; nil
// disables progress reporting.
func SetProgressSink(s *ProgressSink) { progressSink.Store(s) }

// EnableProgress installs a stderr sink, TTY-aware and rate-limited to
// ten renders a second (the -progress flag).
func EnableProgress() {
	SetProgressSink(NewProgressSink(os.Stderr, isTerminal(os.Stderr), 100*time.Millisecond))
}

// isTerminal reports whether f is a character device (a terminal rather
// than a pipe or file).
func isTerminal(f *os.File) bool {
	info, err := f.Stat()
	if err != nil {
		return false
	}
	return info.Mode()&os.ModeCharDevice != 0
}

// ProgressTask tracks one stage's completion count. Add may be called
// from any number of goroutines; Done renders the final state. All
// methods are no-ops on a nil receiver, which StartProgress returns when
// no sink is installed.
type ProgressTask struct {
	sink  *ProgressSink
	stage string
	total int64
	done  atomic.Int64
}

// StartProgress opens a progress task for one stage. total <= 0 means
// the total is unknown and only the running count renders.
func StartProgress(stage string, total int64) *ProgressTask {
	s := progressSink.Load()
	if s == nil {
		return nil
	}
	return &ProgressTask{sink: s, stage: stage, total: total}
}

// Add records n more completed items and maybe renders.
func (t *ProgressTask) Add(n int64) {
	if t == nil {
		return
	}
	done := t.done.Add(n)
	t.sink.render(t.stage, done, t.total, false)
}

// Done renders the task's final state; on a TTY it also terminates the
// in-place status line.
func (t *ProgressTask) Done() {
	if t == nil {
		return
	}
	t.sink.render(t.stage, t.done.Load(), t.total, true)
}

// render writes one status line, dropping updates inside the rate-limit
// window unless final forces the write.
func (s *ProgressSink) render(stage string, done, total int64, final bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	if !final && s.min > 0 && now.Sub(s.last) < s.min {
		return
	}
	s.last = now

	var line string
	if total > 0 {
		line = fmt.Sprintf("%s %d/%d (%d%%)", stage, done, total, done*100/total)
	} else {
		line = fmt.Sprintf("%s %d", stage, done)
	}
	if s.tty {
		// Rewrite in place, blanking any longer previous line.
		pad := ""
		if n := s.lineLen - len(line); n > 0 {
			pad = strings.Repeat(" ", n)
		}
		s.lineLen = len(line)
		fmt.Fprintf(s.w, "\r%s%s", line, pad)
		if final {
			fmt.Fprintln(s.w)
			s.lineLen = 0
		}
		return
	}
	fmt.Fprintf(s.w, "progress: %s\n", line)
}
