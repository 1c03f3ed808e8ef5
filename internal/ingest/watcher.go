package ingest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mpa/internal/obs"
)

// Watcher polls a directory for update files and applies each exactly
// once, in lexicographic filename order — so producers naming files by
// month ("2014-07.json") get in-order ingestion for free. Polling (no
// inotify dependency) keeps the watcher portable; producers must write
// files atomically (write to a temp name, then rename into the
// directory), the standard contract for drop-directory feeds.
type Watcher struct {
	dir      string
	interval time.Duration
	apply    func(path string, u *Update) error
	seen     map[string]bool
}

// NewWatcher returns a watcher over dir applying each new "*.json" file
// via apply. A non-positive interval defaults to 2s.
func NewWatcher(dir string, interval time.Duration, apply func(path string, u *Update) error) *Watcher {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	return &Watcher{dir: dir, interval: interval, apply: apply, seen: map[string]bool{}}
}

// Scan runs one poll pass: every unseen update file is decoded and
// applied in filename order. A file is marked seen whether or not it
// applied cleanly — a malformed or rejected file is skipped forever
// (and counted under ingest.watch_errors), never retried in a hot loop.
// It returns how many files applied cleanly and the first error.
func (w *Watcher) Scan() (applied int, err error) {
	entries, rerr := os.ReadDir(w.dir)
	if rerr != nil {
		return 0, fmt.Errorf("ingest: watch dir: %w", rerr)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") || w.seen[e.Name()] {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		w.seen[name] = true
		path := filepath.Join(w.dir, name)
		ferr := w.applyFile(path)
		if ferr != nil {
			obs.GetCounter("ingest.watch_errors").Add(1)
			obs.Logger().Error("ingest: watch apply failed", "file", name, "err", ferr)
			if err == nil {
				err = ferr
			}
			continue
		}
		applied++
		obs.Logger().Info("ingest: applied update file", "file", name)
	}
	return applied, err
}

// applyFile decodes and applies one update file, read whole into a
// buffer sized from the file's size.
func (w *Watcher) applyFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	u, err := parseUpdate(b)
	if err != nil {
		return err
	}
	return w.apply(path, u)
}

// Run polls until ctx is canceled. Scan errors are logged and counted
// but do not stop the loop; only context cancellation returns.
func (w *Watcher) Run(ctx context.Context) error {
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			_, _ = w.Scan()
		}
	}
}
