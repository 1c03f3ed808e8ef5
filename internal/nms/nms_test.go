package nms

import (
	"testing"
	"time"
)

func ts(day, hour int) time.Time {
	return time.Date(2014, time.March, day, hour, 0, 0, 0, time.UTC)
}

func snap(dev string, t time.Time, login, text string) *Snapshot {
	return &Snapshot{Device: dev, Time: t, Login: login, Text: "cfg-" + text}
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

func TestConservativeModality(t *testing.T) {
	a := NewArchive()
	a.MarkSpecialAccount("svc-netauto")
	if !a.IsAutomated("svc-netauto") {
		t.Error("special-account login not classified automated")
	}
	// A script under a regular account is misclassified as manual — the
	// paper's acknowledged under-estimation.
	if a.IsAutomated("cron-under-bobs-account") {
		t.Error("unregistered login classified automated")
	}
}
