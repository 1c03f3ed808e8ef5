package osp

import (
	"slices"
	"strings"
	"testing"

	"mpa/internal/confmodel"
	"mpa/internal/months"
	"mpa/internal/netmodel"
	"mpa/internal/ticketing"
)

// smallOSP is generated once and shared across tests (read-only).
var smallOSP = Generate(Small(7))

func TestGenerateDeterministic(t *testing.T) {
	p := Small(3)
	p.Networks = 5
	a := Generate(p)
	b := Generate(p)
	if a.Inventory.DeviceCount() != b.Inventory.DeviceCount() {
		t.Fatal("device counts differ across identical seeds")
	}
	if a.Archive.SnapshotCount() != b.Archive.SnapshotCount() {
		t.Fatal("snapshot counts differ across identical seeds")
	}
	if a.Tickets.Len() != b.Tickets.Len() {
		t.Fatal("ticket counts differ across identical seeds")
	}
	// Spot-check one device's snapshot stream byte-for-byte.
	dev := a.Inventory.Networks[0].Devices[0].Name
	sa, sb := a.Archive.Snapshots(dev), b.Archive.Snapshots(dev)
	if len(sa) != len(sb) {
		t.Fatalf("snapshot streams differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].Text != sb[i].Text || !sa[i].Time.Equal(sb[i].Time) {
			t.Fatalf("snapshot %d differs", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	p1, p2 := Small(1), Small(2)
	p1.Networks, p2.Networks = 5, 5
	a, b := Generate(p1), Generate(p2)
	if a.Archive.SnapshotCount() == b.Archive.SnapshotCount() && a.Tickets.Len() == b.Tickets.Len() {
		t.Error("different seeds produced identical scale — suspicious")
	}
}

func TestInventoryShape(t *testing.T) {
	o := smallOSP
	if got := len(o.Inventory.Networks); got != o.Params.Networks {
		t.Fatalf("networks = %d", got)
	}
	multiVendor, multiRole, withMbox, interconnect := 0, 0, 0, 0
	for _, nw := range o.Inventory.Networks {
		if len(nw.Devices) < 2 {
			t.Errorf("network %s has %d devices", nw.Name, len(nw.Devices))
		}
		if len(nw.Vendors()) > 1 {
			multiVendor++
		}
		if len(nw.Roles()) > 1 {
			multiRole++
		}
		if slices.ContainsFunc(nw.Devices, func(d *netmodel.Device) bool { return d.Role.IsMiddlebox() }) {
			withMbox++
		}
		if nw.Interconnect {
			interconnect++
			if len(nw.Services) != 0 {
				t.Errorf("interconnect %s hosts services", nw.Name)
			}
		} else if len(nw.Services) == 0 {
			t.Errorf("non-interconnect %s hosts no services", nw.Name)
		}
	}
	n := len(o.Inventory.Networks)
	// Appendix-A shape checks, with slack for the small sample.
	if frac := float64(multiVendor) / float64(n); frac < 0.6 || frac > 0.95 {
		t.Errorf("multi-vendor fraction = %.2f, want ~0.81", frac)
	}
	if frac := float64(withMbox) / float64(n); frac < 0.5 || frac > 0.9 {
		t.Errorf("middlebox fraction = %.2f, want ~0.71", frac)
	}
	if multiRole == 0 {
		t.Error("no multi-role networks")
	}
}

func TestDeviceNamingAndIPs(t *testing.T) {
	seenIP := map[string]bool{}
	for _, nw := range smallOSP.Inventory.Networks {
		for _, d := range nw.Devices {
			if !strings.HasPrefix(d.Name, nw.Name+"-") {
				t.Fatalf("device %s not prefixed with network %s", d.Name, nw.Name)
			}
			if seenIP[d.MgmtIP] {
				t.Fatalf("duplicate management IP %s", d.MgmtIP)
			}
			seenIP[d.MgmtIP] = true
		}
	}
}

func TestSnapshotsParseable(t *testing.T) {
	// Every archived snapshot must be parseable by the device's dialect.
	o := smallOSP
	checked := 0
	for _, nw := range o.Inventory.Networks[:10] {
		for _, d := range nw.Devices {
			for _, s := range o.Archive.Snapshots(d.Name) {
				cfg, err := dialectFor(d.Vendor).Parse(s.Text)
				if err != nil {
					t.Fatalf("unparseable snapshot for %s: %v", d.Name, err)
				}
				if cfg.Hostname != d.Name {
					t.Fatalf("hostname %q != device %q", cfg.Hostname, d.Name)
				}
				if text := dialectFor(d.Vendor).Render(cfg); text != s.Text {
					t.Fatalf("snapshot of %s does not re-render to its own text", d.Name)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no snapshots checked")
	}
}

func TestEveryDeviceHasBaselineSnapshot(t *testing.T) {
	o := smallOSP
	for _, nw := range o.Inventory.Networks {
		for _, d := range nw.Devices {
			hist := o.Archive.Snapshots(d.Name)
			if len(hist) == 0 {
				t.Fatalf("device %s has no snapshots", d.Name)
			}
			if hist[0].Login != "initial-import" {
				t.Errorf("device %s first snapshot login = %q", d.Name, hist[0].Login)
			}
			if got := months.Of(hist[0].Time); got != o.Params.Start {
				t.Errorf("device %s baseline in %v", d.Name, got)
			}
		}
	}
}

func TestSnapshotTimesMonotonicPerDevice(t *testing.T) {
	o := smallOSP
	for _, dev := range o.Archive.Devices() {
		hist := o.Archive.Snapshots(dev)
		for i := 1; i < len(hist); i++ {
			if hist[i].Time.Before(hist[i-1].Time) {
				t.Fatalf("device %s snapshots out of order", dev)
			}
		}
	}
}

func TestTruthMatchesArchiveChangeCounts(t *testing.T) {
	// The ground-truth DeviceChanges per month must equal the number of
	// changes inference sees: consecutive snapshots whose parsed
	// configurations differ.
	o := smallOSP
	for _, nw := range o.Inventory.Networks[:15] {
		got := map[months.Month]int{}
		for _, d := range nw.Devices {
			var prev *confmodel.Config
			for _, s := range o.Archive.Snapshots(d.Name) {
				cfg, err := dialectFor(d.Vendor).Parse(s.Text)
				if err != nil {
					t.Fatalf("unparseable snapshot for %s: %v", d.Name, err)
				}
				if prev != nil && !prev.Equal(cfg) {
					got[months.Of(s.Time)]++
				}
				prev = cfg
			}
		}
		for _, m := range o.Params.Months() {
			if want := o.Truth[nw.Name][m].DeviceChanges; got[m] != want {
				t.Errorf("network %s month %v: archive changes %d != truth %d",
					nw.Name, m, got[m], want)
			}
		}
	}
}

func TestTicketsRespectStudyWindow(t *testing.T) {
	o := smallOSP
	for _, tk := range o.Tickets.All() {
		m := months.Of(tk.Opened)
		if m.Before(o.Params.Start) || o.Params.End.Before(m) {
			t.Fatalf("ticket outside window: %v", tk.Opened)
		}
	}
}

func TestTicketSkewMatchesPaper(t *testing.T) {
	// Figure 9's skew: the majority of network-months must be healthy
	// (<=1 ticket), and unhealthy months must still exist.
	o := smallOSP
	healthy, total := 0, 0
	veryPoor := 0
	counts := o.Tickets.HealthCounts()
	for _, nw := range o.Inventory.Networks {
		for _, m := range o.Params.Months() {
			n := counts[ticketing.NetworkMonth{Network: nw.Name, Month: m}]
			total++
			if n <= 1 {
				healthy++
			}
			if n >= 12 {
				veryPoor++
			}
		}
	}
	frac := float64(healthy) / float64(total)
	if frac < 0.55 || frac > 0.8 {
		t.Errorf("healthy fraction = %.2f, want ~0.65", frac)
	}
	if veryPoor == 0 {
		t.Error("no very-poor network-months: tail too thin")
	}
}

func TestMaintenanceTicketsPresent(t *testing.T) {
	o := smallOSP
	maint := 0
	for _, tk := range o.Tickets.All() {
		if tk.Origin == ticketing.OriginMaintenance {
			maint++
		}
	}
	if maint == 0 {
		t.Error("no maintenance tickets generated")
	}
}

func TestAutomationAccountsRegistered(t *testing.T) {
	o := smallOSP
	for _, acct := range specialAccounts {
		if !o.Archive.IsAutomated(acct) {
			t.Errorf("special account %s not registered", acct)
		}
	}
	if o.Archive.IsAutomated("op-chen") {
		t.Error("operator login classified automated")
	}
}

func TestVendorQuirkInGeneratedConfigs(t *testing.T) {
	// Cisco devices must carry VLAN membership on interfaces; Juniper
	// devices must carry it on vlan stanzas.
	o := smallOSP
	var sawCiscoQuirk, sawJuniperQuirk bool
	for _, nw := range o.Inventory.Networks {
		for _, d := range nw.Devices {
			hist := o.Archive.Snapshots(d.Name)
			text := hist[len(hist)-1].Text
			if d.Vendor == netmodel.VendorCisco && strings.Contains(text, "switchport access vlan") {
				sawCiscoQuirk = true
			}
			if d.Vendor == netmodel.VendorJuniper && strings.Contains(text, "vlans v") {
				sawJuniperQuirk = true
			}
		}
	}
	if !sawCiscoQuirk {
		t.Error("no Cisco device has interface-side VLAN membership")
	}
	if !sawJuniperQuirk {
		t.Error("no Juniper device has vlan-side membership")
	}
}

func TestTraitsExported(t *testing.T) {
	o := smallOSP
	if len(o.Traits) != o.Params.Networks {
		t.Fatalf("traits for %d networks", len(o.Traits))
	}
	for name, tr := range o.Traits {
		if tr.EventRate <= 0 {
			t.Errorf("network %s event rate %v", name, tr.EventRate)
		}
		if tr.AutomationProp < 0 || tr.AutomationProp > 1 {
			t.Errorf("network %s automation %v", name, tr.AutomationProp)
		}
	}
}

func TestHealthLambdaResponds(t *testing.T) {
	w := DefaultHealthWeights()
	w.Noise = 0
	quiet := MonthTruth{Events: 2, ChangeTypes: 1, DevicesPerEvent: 1}
	busy := MonthTruth{Events: 60, ChangeTypes: 8, DevicesPerEvent: 3, FracACLEvents: 0.5}
	r := newTestRNG()
	lQuiet := w.Lambda(5, 5, 2, 2, quiet, r)
	lBusy := w.Lambda(300, 200, 15, 5, busy, r)
	if lBusy <= lQuiet {
		t.Errorf("lambda not increasing: busy %v <= quiet %v", lBusy, lQuiet)
	}
}

func TestHealthHumpShape(t *testing.T) {
	if hump(0.5) != 1 {
		t.Errorf("hump(0.5) = %v", hump(0.5))
	}
	if hump(0) != 0 || hump(1) != 0 {
		t.Error("hump endpoints not zero")
	}
	if !(hump(0.25) > 0 && hump(0.25) < 1) {
		t.Errorf("hump(0.25) = %v", hump(0.25))
	}
}

func TestScaleRoughlyPaper(t *testing.T) {
	// Small params: sanity scale only. Snapshot count should be O(100)
	// per network-month pair at most and tickets O(10K) at full scale —
	// here just require non-trivial volume.
	o := smallOSP
	if o.Archive.SnapshotCount() < o.Inventory.DeviceCount() {
		t.Error("fewer snapshots than devices (missing baselines?)")
	}
	if o.Tickets.Len() == 0 {
		t.Error("no tickets at all")
	}
}

func TestInitialConfigsValidateClean(t *testing.T) {
	// The generator's initial configurations must be internally
	// consistent: every reference resolves. (Later in the simulation,
	// removal events may legitimately leave dangling references — e.g. an
	// interface still pointing at a deleted VLAN — just as real operators
	// do.)
	o := smallOSP
	for _, nw := range o.Inventory.Networks[:20] {
		for _, d := range nw.Devices {
			first := o.Archive.Snapshots(d.Name)[0]
			cfg, err := dialectFor(d.Vendor).Parse(first.Text)
			if err != nil {
				t.Fatal(err)
			}
			if issues := confmodel.Validate(cfg); len(issues) != 0 {
				t.Fatalf("device %s initial config has issues: %v", d.Name, issues)
			}
		}
	}
}

func TestMultiEditSessions(t *testing.T) {
	// Commit granularity: the per-device change count must exceed the
	// event-device count overall (each event device session produces one
	// or more snapshots), and the ratio must vary across networks (the
	// editRate latent that decouples O1 from O4).
	o := smallOSP
	var ratios []float64
	for _, nw := range o.Inventory.Networks {
		var changes, eventDevices float64
		for _, mt := range o.Truth[nw.Name] {
			changes += float64(mt.DeviceChanges)
			eventDevices += mt.DevicesPerEvent * float64(mt.Events)
		}
		if eventDevices > 0 {
			ratios = append(ratios, changes/eventDevices)
		}
	}
	if len(ratios) < 10 {
		t.Fatal("too few networks with events")
	}
	lo, hi := ratios[0], ratios[0]
	for _, r := range ratios {
		if r < 1-1e-9 {
			t.Fatalf("changes below event-device count: ratio %v", r)
		}
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi/lo < 1.5 {
		t.Errorf("edit-rate spread too narrow: %v .. %v", lo, hi)
	}
}

func TestFleetProcurementConcentration(t *testing.T) {
	// Most larger networks should be dominated by per-role fleets: the
	// most common model covers a large share of devices.
	o := smallOSP
	checked := 0
	dominated := 0
	for _, nw := range o.Inventory.Networks {
		if len(nw.Devices) < 10 {
			continue
		}
		checked++
		max := 0
		for _, count := range nw.Models() {
			if count > max {
				max = count
			}
		}
		if float64(max) >= 0.4*float64(len(nw.Devices)) {
			dominated++
		}
	}
	if checked == 0 {
		t.Skip("no large networks in sample")
	}
	if frac := float64(dominated) / float64(checked); frac < 0.5 {
		t.Errorf("only %.2f of large networks are fleet-dominated", frac)
	}
}

func TestHealthSaturation(t *testing.T) {
	// The saturating response: beyond the cap, more events add nothing.
	w := DefaultHealthWeights()
	w.Noise = 0
	r := newTestRNG()
	mid := MonthTruth{Events: 20}
	high := MonthTruth{Events: 200}
	if w.Lambda(10, 10, 3, 2, mid, r) != w.Lambda(10, 10, 3, 2, high, r) {
		t.Error("event response not saturating beyond the cap")
	}
	low := MonthTruth{Events: 2}
	if w.Lambda(10, 10, 3, 2, low, r) >= w.Lambda(10, 10, 3, 2, mid, r) {
		t.Error("event response not increasing below the cap")
	}
}
