package netmodel

import "testing"

func sampleNetwork() *Network {
	return &Network{
		Name:     "net01",
		Services: []string{"search", "mail"},
		Devices: []*Device{
			{Name: "sw1", Network: "net01", Vendor: VendorCisco, Model: "c-3850", Role: RoleSwitch, Firmware: "16.9", MgmtIP: "10.0.0.1"},
			{Name: "sw2", Network: "net01", Vendor: VendorCisco, Model: "c-3850", Role: RoleSwitch, Firmware: "16.12", MgmtIP: "10.0.0.2"},
			{Name: "r1", Network: "net01", Vendor: VendorJuniper, Model: "j-mx240", Role: RoleRouter, Firmware: "18.4", MgmtIP: "10.0.0.3"},
			{Name: "fw1", Network: "net01", Vendor: VendorJuniper, Model: "j-srx", Role: RoleFirewall, Firmware: "18.4", MgmtIP: "10.0.0.4"},
			{Name: "lb1", Network: "net01", Vendor: VendorCisco, Model: "c-lb", Role: RoleLoadBalancer, Firmware: "9.1", MgmtIP: "10.0.0.5"},
		},
	}
}

func TestRoleStrings(t *testing.T) {
	names := map[Role]string{
		RoleSwitch: "switch", RoleRouter: "router", RoleFirewall: "firewall",
		RoleLoadBalancer: "loadbalancer", RoleADC: "adc",
	}
	for r, want := range names {
		if got := r.String(); got != want {
			t.Errorf("Role(%d).String() = %q, want %q", r, got, want)
		}
	}
	if Role(99).String() == "" {
		t.Error("unknown role should have a descriptive name")
	}
}

func TestIsMiddlebox(t *testing.T) {
	for _, r := range []Role{RoleFirewall, RoleLoadBalancer, RoleADC} {
		if !r.IsMiddlebox() {
			t.Errorf("%v should be a middlebox", r)
		}
	}
	for _, r := range []Role{RoleSwitch, RoleRouter} {
		if r.IsMiddlebox() {
			t.Errorf("%v should not be a middlebox", r)
		}
	}
}

func TestVendorString(t *testing.T) {
	if VendorCisco.String() != "cisco" || VendorJuniper.String() != "juniper" {
		t.Error("vendor names wrong")
	}
}

func TestNetworkAggregates(t *testing.T) {
	n := sampleNetwork()
	if got := n.Models(); len(got) != 4 || got["c-3850"] != 2 {
		t.Errorf("Models = %v", got)
	}
	if got := n.Vendors(); len(got) != 2 || got[VendorCisco] != 3 {
		t.Errorf("Vendors = %v", got)
	}
	if got := n.Roles(); len(got) != 4 || got[RoleSwitch] != 2 {
		t.Errorf("Roles = %v", got)
	}
	if got := n.Firmwares(); len(got) != 4 || got["18.4"] != 2 {
		t.Errorf("Firmwares = %v", got)
	}
}

func TestInventory(t *testing.T) {
	inv := &Inventory{Networks: []*Network{
		sampleNetwork(),
		{Name: "net02", Services: []string{"mail"}, Devices: []*Device{
			{Name: "x1", Network: "net02"},
		}},
	}}
	if got := inv.DeviceCount(); got != 6 {
		t.Errorf("DeviceCount = %d, want 6", got)
	}
	// "mail" is shared; distinct services are search + mail = 2.
	if got := inv.ServiceCount(); got != 2 {
		t.Errorf("ServiceCount = %d, want 2", got)
	}
	if inv.Network("net02") == nil || inv.Network("nope") != nil {
		t.Error("Network lookup wrong")
	}
}
