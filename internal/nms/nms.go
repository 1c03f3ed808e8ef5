// Package nms models the network-management-system substrate MPA reads
// configuration history from (paper §2.1, data source 2). Systems like
// RANCID and HPNA subscribe to device syslog feeds and snapshot a device's
// configuration whenever the device reports that its configuration
// changed; each snapshot carries the configuration text plus metadata —
// when the change occurred and the login of the entity (user or script)
// that made it.
//
// The archive also implements the paper's change-modality inference: a
// change is classified as automated if its login is a special account in
// the organization's user-management system; otherwise it is assumed
// manual. This conservative rule misclassifies scripts running under
// regular user accounts, under-estimating automation — the synthetic OSP
// generator reproduces that bias deliberately.
package nms

import (
	"fmt"
	"sort"
	"time"
)

// Snapshot is one archived device configuration.
type Snapshot struct {
	Device string
	Time   time.Time
	Login  string // entity that made the triggering change
	Text   string // full rendered configuration text
}

// Archive stores time-ordered configuration snapshots per device.
type Archive struct {
	byDevice map[string][]*Snapshot
	special  map[string]bool // logins classified as automation accounts
}

// NewArchive returns an empty archive.
func NewArchive() *Archive {
	return &Archive{byDevice: map[string][]*Snapshot{}, special: map[string]bool{}}
}

// MarkSpecialAccount registers a login as an automation (special) account.
func (a *Archive) MarkSpecialAccount(login string) { a.special[login] = true }

// IsAutomated reports whether changes by the given login are classified as
// automated.
func (a *Archive) IsAutomated(login string) bool { return a.special[login] }

// SpecialAccounts returns the registered automation logins, sorted. The
// inference cache folds them into its content-addressed keys: reclassifying
// a login changes every affected network's digest.
func (a *Archive) SpecialAccounts() []string {
	out := make([]string, 0, len(a.special))
	for login := range a.special {
		out = append(out, login)
	}
	sort.Strings(out)
	return out
}

// Record appends a snapshot to the device's history. Snapshots must be
// recorded in non-decreasing time order per device.
func (a *Archive) Record(s *Snapshot) error {
	hist := a.byDevice[s.Device]
	if n := len(hist); n > 0 && s.Time.Before(hist[n-1].Time) {
		return fmt.Errorf("nms: out-of-order snapshot for %s: %v before %v",
			s.Device, s.Time, hist[n-1].Time)
	}
	a.byDevice[s.Device] = append(hist, s)
	return nil
}

// Clone returns an independent archive sharing b's snapshot records.
// Device histories are re-sliced with capacity clamped to length, so a
// Record into the clone always reallocates instead of writing into the
// original's backing array: the incremental ingest path appends a new
// month into a clone while readers of the original keep iterating it.
// Snapshots themselves are immutable and stay shared.
func (a *Archive) Clone() *Archive {
	b := &Archive{
		byDevice: make(map[string][]*Snapshot, len(a.byDevice)),
		special:  make(map[string]bool, len(a.special)),
	}
	for login := range a.special {
		b.special[login] = true
	}
	for dev, hist := range a.byDevice {
		b.byDevice[dev] = hist[:len(hist):len(hist)]
	}
	return b
}

// Merge absorbs another archive: every device history and special
// account of b is appended into a. Histories of devices present in both
// archives are concatenated (a's first), so callers merging archives
// whose device sets are disjoint — the parallel OSP generator, which
// builds one archive per network — get exactly the archive a sequential
// build would have produced.
func (a *Archive) Merge(b *Archive) {
	if b == nil {
		return
	}
	for login := range b.special {
		a.special[login] = true
	}
	for dev, hist := range b.byDevice {
		a.byDevice[dev] = append(a.byDevice[dev], hist...)
	}
}

// Snapshots returns the device's snapshot history in time order.
func (a *Archive) Snapshots(device string) []*Snapshot { return a.byDevice[device] }

// Devices returns all devices with at least one snapshot, sorted.
func (a *Archive) Devices() []string {
	out := make([]string, 0, len(a.byDevice))
	for d := range a.byDevice {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// SnapshotCount returns the total number of archived snapshots.
func (a *Archive) SnapshotCount() int {
	total := 0
	for _, hist := range a.byDevice {
		total += len(hist)
	}
	return total
}

// TotalBytes returns the total size of archived configuration text.
func (a *Archive) TotalBytes() int64 {
	var total int64
	for _, hist := range a.byDevice {
		for _, s := range hist {
			total += int64(len(s.Text))
		}
	}
	return total
}
