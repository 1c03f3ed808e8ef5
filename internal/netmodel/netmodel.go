// Package netmodel defines the inventory records MPA consumes (paper
// §2.1, data source 1): the networks an organization manages, the devices
// in each network with their vendor, model, role, and firmware, and the
// workloads (services) each network hosts.
//
// A network is a collection of devices that either connects compute
// equipment hosting specific workloads, or connects other networks to each
// other or the external world. Inventory data is the ground truth for the
// design-practice metrics D1–D3.
package netmodel

import "fmt"

// Role is the function a device plays in a network. Per the paper's OSP
// characterization (Appendix A.1), no single device has more than one role.
type Role int

// Device roles observed in the OSP's networks.
const (
	RoleSwitch Role = iota
	RoleRouter
	RoleFirewall
	RoleLoadBalancer
	RoleADC // application delivery controller
	numRoles
)

// NumRoles is the number of distinct device roles.
const NumRoles = int(numRoles)

// String returns the lower-case role name.
func (r Role) String() string {
	switch r {
	case RoleSwitch:
		return "switch"
	case RoleRouter:
		return "router"
	case RoleFirewall:
		return "firewall"
	case RoleLoadBalancer:
		return "loadbalancer"
	case RoleADC:
		return "adc"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// IsMiddlebox reports whether the role is a middlebox (firewall, ADC, or
// load balancer), the paper's middlebox definition (Appendix A.1).
func (r Role) IsMiddlebox() bool {
	return r == RoleFirewall || r == RoleLoadBalancer || r == RoleADC
}

// Vendor identifies a device vendor, which determines the configuration
// dialect the device speaks.
type Vendor int

// Vendors. The reproduction implements two dialects, mirroring the paper's
// Cisco IOS / Juniper JunOS examples (§2.2).
const (
	VendorCisco Vendor = iota
	VendorJuniper
	numVendors
)

// NumVendors is the number of distinct vendors.
const NumVendors = int(numVendors)

// String returns the vendor name.
func (v Vendor) String() string {
	switch v {
	case VendorCisco:
		return "cisco"
	case VendorJuniper:
		return "juniper"
	default:
		return fmt.Sprintf("vendor(%d)", int(v))
	}
}

// Device is one inventory record: a managed network element.
type Device struct {
	Name     string // unique within the organization, e.g. "net042-sw-03"
	Network  string // name of the owning network
	Vendor   Vendor
	Model    string // vendor-qualified hardware model, e.g. "cisco-m3"
	Role     Role
	Firmware string // firmware/OS version string
	// MgmtIP is the device's loopback/management address; inter-device
	// references (e.g. BGP neighbor statements) point at these.
	MgmtIP string
}

// Network is one managed network and its purpose.
type Network struct {
	Name string
	// Services lists the workloads the network hosts. Interconnect
	// networks host none (paper: a handful of networks host no workloads
	// and only connect networks to each other or the external world).
	Services []string
	// Interconnect marks networks whose purpose is connecting other
	// networks rather than hosting workloads.
	Interconnect bool
	Devices      []*Device
}

// Models returns the set of distinct hardware models in the network.
func (n *Network) Models() map[string]int {
	m := map[string]int{}
	for _, d := range n.Devices {
		m[d.Model]++
	}
	return m
}

// Vendors returns the set of distinct vendors in the network.
func (n *Network) Vendors() map[Vendor]int {
	m := map[Vendor]int{}
	for _, d := range n.Devices {
		m[d.Vendor]++
	}
	return m
}

// Roles returns the set of distinct roles in the network.
func (n *Network) Roles() map[Role]int {
	m := map[Role]int{}
	for _, d := range n.Devices {
		m[d.Role]++
	}
	return m
}

// Firmwares returns the set of distinct firmware versions in the network.
func (n *Network) Firmwares() map[string]int {
	m := map[string]int{}
	for _, d := range n.Devices {
		m[d.Firmware]++
	}
	return m
}

// Inventory is an organization's full inventory: the root data source.
type Inventory struct {
	Networks []*Network
}

// Network returns the named network, or nil.
func (inv *Inventory) Network(name string) *Network {
	for _, n := range inv.Networks {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// DeviceCount returns the total number of devices across all networks.
func (inv *Inventory) DeviceCount() int {
	total := 0
	for _, n := range inv.Networks {
		total += len(n.Devices)
	}
	return total
}

// ServiceCount returns the total number of distinct services hosted.
func (inv *Inventory) ServiceCount() int {
	seen := map[string]bool{}
	for _, n := range inv.Networks {
		for _, s := range n.Services {
			seen[s] = true
		}
	}
	return len(seen)
}
