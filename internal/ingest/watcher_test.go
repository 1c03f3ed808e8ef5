package ingest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mpa/internal/obs"
)

// TestWatcherRun drives the `mpa watch` loop itself at a short interval:
// two update files apply in name order, a malformed file counts once in
// ingest.watch_errors and is never retried on later polls, and Run
// returns context.Canceled once its context is canceled.
func TestWatcherRun(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"2014-08.json": `{"month":"2014-08","snapshots":[],"tickets":[]}`,
		"2014-07.json": `{"month":"2014-07","snapshots":[],"tickets":[]}`,
		"broken.json":  `{nope`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const interval = 5 * time.Millisecond
	errs := obs.GetCounter("ingest.watch_errors")
	before := errs.Value()
	applied := make(chan string, 8)
	w := NewWatcher(dir, interval, func(_ string, u *Update) error {
		applied <- u.Month
		return nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	for _, want := range []string{"2014-07", "2014-08"} {
		select {
		case got := <-applied:
			if got != want {
				t.Fatalf("applied %s, want %s next", got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never applied", want)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for errs.Value() == before && time.Now().Before(deadline) {
		time.Sleep(interval)
	}
	// Many more polls: nothing applies again, the broken file is not
	// retried.
	time.Sleep(20 * interval)
	select {
	case got := <-applied:
		t.Fatalf("%s applied again on a later poll", got)
	default:
	}
	if d := errs.Value() - before; d != 1 {
		t.Errorf("ingest.watch_errors grew by %d, want 1", d)
	}

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}
