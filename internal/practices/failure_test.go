package practices

import (
	"strings"
	"testing"
	"time"

	"mpa/internal/months"
	"mpa/internal/netmodel"
	"mpa/internal/nms"
)

// failure-injection tests: the inference engine must surface corrupt
// archive data as errors rather than silently mis-inferring practices.

func tinyInventory() *netmodel.Inventory {
	return &netmodel.Inventory{Networks: []*netmodel.Network{{
		Name:     "netX",
		Services: []string{"svc"},
		Devices: []*netmodel.Device{{
			Name: "netX-sw-01", Network: "netX",
			Vendor: netmodel.VendorCisco, Model: "c-3850",
			Role: netmodel.RoleSwitch, Firmware: "16.9", MgmtIP: "10.0.0.1",
		}},
	}}}
}

func window() []months.Month {
	m := months.Month{Year: 2014, Mon: time.March}
	return months.Range(m, m)
}

func TestCorruptSnapshotSurfacesError(t *testing.T) {
	inv := tinyInventory()
	arch := nms.NewArchive()
	err := arch.Record(&nms.Snapshot{
		Device: "netX-sw-01",
		Time:   time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC),
		Login:  "op-chen",
		Text:   "hostname netX-sw-01\ngarbage that is not IOS\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(inv, arch)
	_, err = e.Analyze(window())
	if err == nil {
		t.Fatal("corrupt snapshot did not surface an error")
	}
	if !strings.Contains(err.Error(), "netX-sw-01") {
		t.Errorf("error does not identify the device: %v", err)
	}
}

func TestEmptyArchiveYieldsZeroOperationalMetrics(t *testing.T) {
	inv := tinyInventory()
	arch := nms.NewArchive()
	e := NewEngine(inv, arch)
	out, err := e.Analyze(window())
	if err != nil {
		t.Fatal(err)
	}
	m := out["netX"][0].Metrics
	if m[MetricConfigChanges] != 0 || m[MetricChangeEvents] != 0 {
		t.Errorf("no-archive metrics nonzero: %v", m)
	}
	// Design metrics from inventory still present.
	if m[MetricDevices] != 1 {
		t.Errorf("no_devices = %v", m[MetricDevices])
	}
}

func TestDeviceWithoutChangesContributesDesignOnly(t *testing.T) {
	inv := tinyInventory()
	arch := nms.NewArchive()
	text := "hostname netX-sw-01\n!\nvlan 100\n name seg-100\n!\nend\n"
	if err := arch.Record(&nms.Snapshot{
		Device: "netX-sw-01",
		Time:   time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC),
		Login:  "initial-import",
		Text:   text,
	}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(inv, arch)
	out, err := e.Analyze(window())
	if err != nil {
		t.Fatal(err)
	}
	m := out["netX"][0].Metrics
	if m[MetricVLANs] != 1 {
		t.Errorf("no_vlans = %v, want 1", m[MetricVLANs])
	}
	if m[MetricConfigChanges] != 0 {
		t.Errorf("baseline import counted as a change")
	}
}

func TestMixedCorruptionReportsFirstBadDevice(t *testing.T) {
	inv := tinyInventory()
	inv.Networks[0].Devices = append(inv.Networks[0].Devices, &netmodel.Device{
		Name: "netX-sw-02", Network: "netX",
		Vendor: netmodel.VendorJuniper, Model: "j-ex4300",
		Role: netmodel.RoleSwitch, Firmware: "18.4", MgmtIP: "10.0.0.2",
	})
	arch := nms.NewArchive()
	good := "hostname netX-sw-01\n!\nend\n"
	if err := arch.Record(&nms.Snapshot{
		Device: "netX-sw-01", Time: time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC),
		Login: "x", Text: good,
	}); err != nil {
		t.Fatal(err)
	}
	if err := arch.Record(&nms.Snapshot{
		Device: "netX-sw-02", Time: time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC),
		Login: "x", Text: "host-name netX-sw-02;\nnot junos at all\n",
	}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(inv, arch)
	if _, err := e.Analyze(window()); err == nil {
		t.Fatal("expected parse error")
	}
}
