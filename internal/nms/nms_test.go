package nms

import (
	"testing"
	"time"

	"mpa/internal/months"
)

func ts(day, hour int) time.Time {
	return time.Date(2014, time.March, day, hour, 0, 0, 0, time.UTC)
}

func snap(dev string, t time.Time, login, fp string) *Snapshot {
	return &Snapshot{Device: dev, Time: t, Login: login, Text: "cfg-" + fp, Fingerprint: fp}
}

func TestRecordAndRetrieve(t *testing.T) {
	a := NewArchive()
	if err := a.Record(snap("d1", ts(1, 0), "alice", "f1")); err != nil {
		t.Fatal(err)
	}
	if err := a.Record(snap("d1", ts(2, 0), "bob", "f2")); err != nil {
		t.Fatal(err)
	}
	if got := len(a.Snapshots("d1")); got != 2 {
		t.Errorf("snapshots = %d", got)
	}
	if got := a.SnapshotCount(); got != 2 {
		t.Errorf("SnapshotCount = %d", got)
	}
	if a.TotalBytes() <= 0 {
		t.Error("TotalBytes should be positive")
	}
}

func TestRecordRejectsOutOfOrder(t *testing.T) {
	a := NewArchive()
	if err := a.Record(snap("d1", ts(5, 0), "a", "f1")); err != nil {
		t.Fatal(err)
	}
	if err := a.Record(snap("d1", ts(4, 0), "a", "f2")); err == nil {
		t.Fatal("out-of-order snapshot accepted")
	}
	// Equal timestamps are allowed (same-second syslog bursts).
	if err := a.Record(snap("d1", ts(5, 0), "a", "f3")); err != nil {
		t.Fatalf("equal-time snapshot rejected: %v", err)
	}
}

func TestDevicesSorted(t *testing.T) {
	a := NewArchive()
	for _, d := range []string{"z9", "a1", "m5"} {
		if err := a.Record(snap(d, ts(1, 0), "x", "f")); err != nil {
			t.Fatal(err)
		}
	}
	devs := a.Devices()
	if len(devs) != 3 || devs[0] != "a1" || devs[2] != "z9" {
		t.Errorf("Devices = %v", devs)
	}
}

func TestChangesDetection(t *testing.T) {
	a := NewArchive()
	a.MarkSpecialAccount("svc-netauto")
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(a.Record(snap("d1", ts(1, 0), "alice", "f1")))
	must(a.Record(snap("d1", ts(2, 0), "alice", "f1"))) // identical: no change
	must(a.Record(snap("d1", ts(3, 0), "svc-netauto", "f2")))
	must(a.Record(snap("d1", ts(4, 0), "bob", "f3")))
	changes := a.Changes("d1")
	if len(changes) != 2 {
		t.Fatalf("changes = %d, want 2", len(changes))
	}
	if !changes[0].Automated {
		t.Error("special-account change not classified automated")
	}
	if changes[1].Automated {
		t.Error("regular-account change classified automated")
	}
	if changes[0].Before.Fingerprint != "f1" || changes[0].After.Fingerprint != "f2" {
		t.Errorf("change pair wrong: %v -> %v", changes[0].Before.Fingerprint, changes[0].After.Fingerprint)
	}
}

func TestConservativeModality(t *testing.T) {
	// A script under a regular account is misclassified as manual — the
	// paper's acknowledged under-estimation.
	a := NewArchive()
	if a.IsAutomated("cron-under-bobs-account") {
		t.Error("unregistered login classified automated")
	}
}

func TestChangesInMonth(t *testing.T) {
	a := NewArchive()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(a.Record(snap("d1", time.Date(2014, 2, 27, 0, 0, 0, 0, time.UTC), "a", "f1")))
	must(a.Record(snap("d1", time.Date(2014, 3, 2, 0, 0, 0, 0, time.UTC), "a", "f2")))
	must(a.Record(snap("d1", time.Date(2014, 3, 9, 0, 0, 0, 0, time.UTC), "a", "f3")))
	must(a.Record(snap("d1", time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC), "a", "f4")))
	march := a.ChangesInMonth("d1", months.Month{Year: 2014, Mon: time.March})
	if len(march) != 2 {
		t.Errorf("march changes = %d, want 2", len(march))
	}
}

func TestConfigAt(t *testing.T) {
	a := NewArchive()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(a.Record(snap("d1", ts(1, 0), "a", "f1")))
	must(a.Record(snap("d1", ts(10, 0), "a", "f2")))
	if got := a.ConfigAt("d1", ts(5, 0)); got == nil || got.Fingerprint != "f1" {
		t.Errorf("ConfigAt(day5) = %v", got)
	}
	if got := a.ConfigAt("d1", ts(10, 0)); got == nil || got.Fingerprint != "f2" {
		t.Errorf("ConfigAt(day10) = %v", got)
	}
	if got := a.ConfigAt("d1", ts(1, 0).Add(-time.Hour)); got != nil {
		t.Errorf("ConfigAt before history = %v", got)
	}
	if got := a.ConfigAt("ghost", ts(1, 0)); got != nil {
		t.Errorf("ConfigAt unknown device = %v", got)
	}
}

func TestChangesEmptyHistory(t *testing.T) {
	a := NewArchive()
	if got := a.Changes("nothing"); got != nil {
		t.Errorf("Changes of unknown device = %v", got)
	}
}

// TestFingerprintPinned pins the text digest importers store: a change
// of scheme would make every imported snapshot look changed against its
// archived predecessor.
func TestFingerprintPinned(t *testing.T) {
	for text, want := range map[string]string{
		"":              "cbf29ce484222325", // the FNV-1a 64-bit offset basis
		"hostname r1\n": "d9637733475f4699",
	} {
		if got := Fingerprint(text); got != want {
			t.Errorf("Fingerprint(%q) = %s, want %s", text, got, want)
		}
	}
}
