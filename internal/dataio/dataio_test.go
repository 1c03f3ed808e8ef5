package dataio

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpa/internal/netmodel"
	"mpa/internal/nms"
	"mpa/internal/osp"
	"mpa/internal/practices"
	"mpa/internal/ticketing"
)

func sampleInventory() *netmodel.Inventory {
	return &netmodel.Inventory{Networks: []*netmodel.Network{
		{
			Name:     "net001",
			Services: []string{"svc-a", "svc-b"},
			Devices: []*netmodel.Device{
				{Name: "net001-sw-01", Network: "net001", Vendor: netmodel.VendorCisco,
					Model: "c-3850", Role: netmodel.RoleSwitch, Firmware: "16.9", MgmtIP: "10.0.0.1"},
				{Name: "net001-fw-01", Network: "net001", Vendor: netmodel.VendorJuniper,
					Model: "j-srx", Role: netmodel.RoleFirewall, Firmware: "18.4", MgmtIP: "10.0.0.2"},
			},
		},
		{Name: "net002", Interconnect: true, Devices: []*netmodel.Device{
			{Name: "net002-rt-01", Network: "net002", Vendor: netmodel.VendorCisco,
				Model: "c-asr1k", Role: netmodel.RoleRouter, Firmware: "15.2", MgmtIP: "10.0.1.1"},
		}},
	}}
}

func TestInventoryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteInventory(&buf, sampleInventory()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInventory(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleInventory()
	if len(got.Networks) != len(want.Networks) {
		t.Fatalf("networks = %d", len(got.Networks))
	}
	for i, nw := range want.Networks {
		g := got.Networks[i]
		if g.Name != nw.Name || g.Interconnect != nw.Interconnect || len(g.Devices) != len(nw.Devices) {
			t.Fatalf("network %d differs: %+v", i, g)
		}
		for j, d := range nw.Devices {
			if *g.Devices[j] != *d {
				t.Fatalf("device %d/%d differs: %+v vs %+v", i, j, g.Devices[j], d)
			}
		}
	}
}

func TestInventoryReadErrors(t *testing.T) {
	cases := map[string]string{
		"bad vendor":    `{"networks":[{"name":"x","devices":[{"name":"d","vendor":"hp","model":"m","role":"switch","firmware":"1","mgmt_ip":"10.0.0.1"}]}]}`,
		"bad role":      `{"networks":[{"name":"x","devices":[{"name":"d","vendor":"cisco","model":"m","role":"toaster","firmware":"1","mgmt_ip":"10.0.0.1"}]}]}`,
		"empty name":    `{"networks":[{"name":"","devices":[]}]}`,
		"dup network":   `{"networks":[{"name":"x","devices":[]},{"name":"x","devices":[]}]}`,
		"unknown field": `{"networks":[],"extra":1}`,
		"not json":      `hello`,
	}
	for name, doc := range cases {
		if _, err := ReadInventory(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestTicketsRoundTrip(t *testing.T) {
	log := ticketing.NewLog()
	opened := time.Date(2014, 3, 5, 10, 30, 0, 0, time.UTC)
	log.File(ticketing.Ticket{
		Network: "net001", Devices: []string{"d1", "d2"},
		Origin: ticketing.OriginAlarm, Opened: opened,
		Resolved: opened.Add(2 * time.Hour),
		Symptom:  "packet-loss", Notes: "notes, with comma and \"quotes\"",
	})
	log.File(ticketing.Ticket{
		Network: "net002", Origin: ticketing.OriginMaintenance, Opened: opened,
		Symptom: "planned-maintenance",
	})
	var buf bytes.Buffer
	if err := WriteTickets(&buf, log); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTickets(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("tickets = %d", got.Len())
	}
	t0 := got.All()[0]
	if t0.Network != "net001" || len(t0.Devices) != 2 || t0.Origin != ticketing.OriginAlarm {
		t.Errorf("ticket 0 = %+v", t0)
	}
	if !t0.Opened.Equal(opened) || !t0.Resolved.Equal(opened.Add(2*time.Hour)) {
		t.Errorf("times differ: %v %v", t0.Opened, t0.Resolved)
	}
	if t0.Notes != "notes, with comma and \"quotes\"" {
		t.Errorf("notes = %q", t0.Notes)
	}
	t1 := got.All()[1]
	if !t1.Resolved.IsZero() {
		t.Errorf("unresolved ticket has resolved time %v", t1.Resolved)
	}
}

func TestTicketsReadErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":  "a,b\n",
		"bad origin":  "id,network,devices,origin,opened,resolved,symptom,notes\n1,n,,ufo,2014-03-01T00:00:00Z,,s,\n",
		"bad opened":  "id,network,devices,origin,opened,resolved,symptom,notes\n1,n,,alarm,yesterday,,s,\n",
		"bad resolve": "id,network,devices,origin,opened,resolved,symptom,notes\n1,n,,alarm,2014-03-01T00:00:00Z,later,s,\n",
	}
	for name, doc := range cases {
		if _, err := ReadTickets(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSnapshotFileNameRoundTrip(t *testing.T) {
	for _, when := range []time.Time{
		time.Date(2014, 7, 9, 13, 45, 12, 0, time.UTC),
		time.Date(2014, 7, 9, 13, 45, 12, 500_000_000, time.UTC),
		time.Date(2014, 7, 9, 13, 45, 12, 1, time.UTC),
	} {
		name := snapshotFileName(when, "op-chen")
		got, login, err := parseSnapshotFileName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(when) || login != "op-chen" {
			t.Errorf("%s: round trip = %v %q, want %v", name, got, login, when)
		}
	}
	// Names written with whole-second stamps still parse.
	got, login, err := parseSnapshotFileName("2014-07-09T13-45-12Z__op-chen.cfg")
	if err != nil || !got.Equal(time.Date(2014, 7, 9, 13, 45, 12, 0, time.UTC)) || login != "op-chen" {
		t.Errorf("second-precision name = %v %q %v", got, login, err)
	}
}

func TestSnapshotFileNameErrors(t *testing.T) {
	for _, name := range []string{"x.txt", "noseparator.cfg", "bad-time__op.cfg"} {
		if _, _, err := parseSnapshotFileName(name); err == nil {
			t.Errorf("%q: expected error", name)
		}
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	arch := nms.NewArchive()
	arch.MarkSpecialAccount("svc-netauto")
	base := time.Date(2014, 2, 1, 8, 0, 0, 0, time.UTC)
	texts := []string{"hostname d1\n!\nend\n", "hostname d1\n!\nvlan 5\n!\nend\n", "hostname d1\n!\nend\n"}
	for i, text := range texts {
		if err := arch.Record(&nms.Snapshot{
			Device: "d1", Time: base.Add(time.Duration(i) * 1234567891 * time.Nanosecond),
			Login: "svc-netauto", Text: text,
		}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := WriteArchive(dir, arch); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchive(dir, []string{"svc-netauto"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Snapshots("d1"), arch.Snapshots("d1")) {
		t.Errorf("snapshots differ after round trip:\n got %+v\nwant %+v", got.Snapshots("d1"), arch.Snapshots("d1"))
	}
	if !got.IsAutomated("svc-netauto") {
		t.Error("special account not restored")
	}
}

func TestWriteArchiveRejectsSharedFileName(t *testing.T) {
	arch := nms.NewArchive()
	when := time.Date(2014, 2, 1, 8, 0, 0, 0, time.UTC)
	for _, login := range []string{"op", "op"} {
		if err := arch.Record(&nms.Snapshot{Device: "d1", Time: when, Login: login, Text: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := WriteArchive(dir, arch); err == nil {
		t.Fatal("two snapshots with one file name: want error")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("rejected archive left %d entries behind", len(entries))
	}
}

func TestWriteArchiveRejectsPathEscape(t *testing.T) {
	when := time.Date(2014, 2, 1, 8, 0, 0, 0, time.UTC)
	for _, s := range []nms.Snapshot{
		{Device: "..", Login: "op"},
		{Device: ".", Login: "op"},
		{Device: "a/b", Login: "op"},
		{Device: `a\b`, Login: "op"},
		{Device: "d1", Login: "../../../escaped"},
		{Device: "d1", Login: `..\escaped`},
		{Device: "d1", Login: "op\x00"},
	} {
		arch := nms.NewArchive()
		s.Time, s.Text = when, "x"
		if err := arch.Record(&s); err != nil {
			t.Fatal(err)
		}
		root := filepath.Join(t.TempDir(), "a", "b", "root")
		if err := WriteArchive(root, arch); err == nil {
			t.Errorf("device %q login %q: want error", s.Device, s.Login)
		}
		if _, err := os.Stat(filepath.Dir(root)); !os.IsNotExist(err) {
			t.Errorf("device %q login %q: wrote outside root", s.Device, s.Login)
		}
	}
}

// FuzzSnapshotFileName checks that every snapshot WriteArchive accepts
// reads back with the same time and login.
func FuzzSnapshotFileName(f *testing.F) {
	f.Add(int64(1391241600_000000000), "op-chen")
	f.Add(int64(1391241600_123456789), "svc-netauto")
	f.Add(int64(-1), "a__b.cfg")
	f.Add(int64(0), "")
	f.Fuzz(func(t *testing.T, unixNano int64, login string) {
		when := time.Unix(0, unixNano).UTC()
		arch := nms.NewArchive()
		if err := arch.Record(&nms.Snapshot{Device: "d1", Time: when, Login: login, Text: "x"}); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := WriteArchive(dir, arch); err != nil {
			return // rejected names are fine; accepted ones must round-trip
		}
		got, err := ReadArchive(dir, nil)
		if err != nil {
			t.Fatalf("accepted name does not read back: %v", err)
		}
		snaps := got.Snapshots("d1")
		if len(snaps) != 1 || !snaps[0].Time.Equal(when) || snaps[0].Login != login {
			t.Fatalf("round trip of (%v, %q) = %+v", when, login, snaps)
		}
	})
}

func TestReadArchiveIgnoresStrayFiles(t *testing.T) {
	dir := t.TempDir()
	devDir := filepath.Join(dir, "d1")
	if err := os.MkdirAll(devDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(devDir, "notes.md"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(devDir, snapshotFileName(time.Now().UTC().Truncate(time.Second), "op")),
		[]byte("hostname d1\n!\nend\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	arch, err := ReadArchive(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(arch.Snapshots("d1")); got != 1 {
		t.Errorf("snapshots = %d", got)
	}
}

func TestReadArchiveMissingRoot(t *testing.T) {
	if _, err := ReadArchive("/no/such/dir", nil); err == nil {
		t.Error("expected error")
	}
}

// TestOrganizationRoundTripInference is the integration test: a generated
// organization saved to disk and loaded back must yield identical
// inference results.
func TestOrganizationRoundTripInference(t *testing.T) {
	p := osp.Small(31)
	p.Networks = 8
	o := osp.Generate(p)
	dir := t.TempDir()
	if err := SaveOrganization(dir, o.Inventory, o.Archive, o.Tickets); err != nil {
		t.Fatal(err)
	}
	inv, arch, tickets, err := LoadOrganization(dir, []string{"svc-netauto", "rancid-bot", "svc-lbsync"})
	if err != nil {
		t.Fatal(err)
	}
	if inv.DeviceCount() != o.Inventory.DeviceCount() {
		t.Fatalf("device count %d != %d", inv.DeviceCount(), o.Inventory.DeviceCount())
	}
	if tickets.Len() != o.Tickets.Len() {
		t.Fatalf("tickets %d != %d", tickets.Len(), o.Tickets.Len())
	}
	if arch.SnapshotCount() != o.Archive.SnapshotCount() {
		t.Fatalf("snapshots %d != %d", arch.SnapshotCount(), o.Archive.SnapshotCount())
	}

	orig, err := practices.NewEngine(o.Inventory, o.Archive).Analyze(p.Months())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := practices.NewEngine(inv, arch).Analyze(p.Months())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, orig) {
		t.Fatal("analyses of the loaded organization differ from the original")
	}
}
