package osp

import (
	"fmt"
	"math"

	"mpa/internal/netmodel"
	"mpa/internal/rng"
)

// modelCatalog lists the hardware models per vendor, ordered by
// popularity (Zipf-ranked). Per the paper's characterization, networks
// contain up to 25 distinct models across up to 6 vendors; two vendors
// with a deep catalog reproduce the heterogeneity range.
var modelCatalog = map[netmodel.Vendor][]string{
	netmodel.VendorCisco: {
		"c-n9372", "c-3850", "c-n3064", "c-6509", "c-4948", "c-asr1k",
		"c-n7700", "c-2960", "c-asa5585", "c-csm", "c-n5548", "c-9336",
		"c-isr4451", "c-fpr2110", "c-ace30",
	},
	netmodel.VendorJuniper: {
		"j-qfx5100", "j-ex4300", "j-mx240", "j-srx1500", "j-ex9208",
		"j-qfx10002", "j-mx80", "j-srx345", "j-ex3400", "j-ptx1000",
	},
}

// firmwareCatalog lists firmware versions per vendor, newest last.
var firmwareCatalog = map[netmodel.Vendor][]string{
	netmodel.VendorCisco:   {"12.2(33)", "15.0(2)", "15.2(4)", "16.6.4", "16.9.3"},
	netmodel.VendorJuniper: {"12.3R12", "14.1X53", "15.1R7", "17.3R3", "18.4R2"},
}

// serviceCatalog names the workloads networks host (paper: O(100)
// services).
func serviceName(i int) string { return fmt.Sprintf("svc-%03d", i) }

const serviceCount = 120

// meanEventsPerMonth is the median of the per-network monthly
// change-event rate distribution (Figure 12's 10th/90th percentiles near
// 3/34 events).
const meanEventsPerMonth = 6

// changeKind enumerates the generator's event templates; each maps to one
// or more stanza mutations of a characteristic vendor-agnostic type.
type changeKind int

const (
	ckInterfaceEdit changeKind = iota
	ckVLANAdd
	ckVLANEdit
	ckACLEdit
	ckPoolUpdate
	ckUserChange
	ckRouterChange
	ckMgmtChange // snmp / ntp / logging
	ckQoSChange
	ckSflowChange
	ckDHCPRelayChange
	ckPolicyChange // prefix-list / route-map
	numChangeKinds
)

// profile holds a network's latent traits: the generator-side ground truth
// the inference pipeline must rediscover from raw data.
type profile struct {
	index        int
	name         string
	interconnect bool
	services     []string

	deviceCount int
	// vendorBias is the probability a device is Cisco.
	vendorBias float64
	// modelSpread controls how many catalog models the network draws from
	// (Zipf exponent; lower = more heterogeneous).
	modelSpread float64
	// middlebox fractions.
	hasMiddlebox bool

	// Data-plane / control-plane usage.
	vlanCount   int
	useBGP      bool
	useOSPF     bool
	useSTP      bool
	useLAG      bool
	useUDLD     bool
	useDHCPR    bool
	mstpRegions int
	// lagProb is the per-device probability of LAG configuration, and
	// vlanCarry the base fraction of the network's VLANs a device
	// carries; both are per-network latents so that LAG-group counts and
	// VLAN sharing are not mechanical functions of network size.
	lagProb   float64
	vlanCarry float64
	// editRate is the mean number of extra config commits per device per
	// event: organizations differ in commit granularity (many small
	// commits vs one batched commit), so the per-device change count is
	// not a fixed multiple of the event count across networks.
	editRate float64

	// Operational traits.
	eventRate       float64 // mean change events per month
	autoProp        float64 // probability an event is automated
	devicesPerEvent float64 // mean extra devices per event
	kindWeights     []float64
	scriptUnderUser float64 // fraction of automated events run under a
	// personal login (the paper's modality under-count)
}

// newProfile draws a network profile. r must be the network's private
// stream.
func newProfile(idx int, r *rng.RNG) *profile {
	pr := &profile{
		index: idx,
		name:  fmt.Sprintf("net%03d", idx),
	}
	// ~5% of networks are pure interconnects hosting no workloads; 81% of
	// the rest host exactly one workload (Appendix A.1).
	pr.interconnect = r.Bool(0.05)
	if !pr.interconnect {
		n := 1
		if !r.Bool(0.81) {
			n = r.IntBetween(2, 4)
		}
		for i := 0; i < n; i++ {
			pr.services = append(pr.services, serviceName(r.Intn(serviceCount)))
		}
	}

	// Size: long-tailed, median ~10 devices, O(10K) total across 850
	// networks, tail beyond 300 (Fig 12(a)).
	pr.deviceCount = int(math.Round(r.LogNormal(2.2, 1.45)))
	if pr.deviceCount < 2 {
		pr.deviceCount = 2
	}
	if pr.deviceCount > 450 {
		pr.deviceCount = 450
	}

	// Vendor mix: ~81% of networks are multi-vendor.
	if r.Bool(0.19) {
		pr.vendorBias = 1 // single vendor (Cisco)
		if r.Bool(0.4) {
			pr.vendorBias = 0 // single vendor (Juniper)
		}
	} else {
		pr.vendorBias = 0.45 + 0.4*r.Float64() // mixed, Cisco-leaning
	}
	pr.modelSpread = 1.5 + 1.8*r.Float64()
	pr.hasMiddlebox = r.Bool(0.71)

	// Data/control-plane usage (Fig 11(b), 11(c), 11(e)): everyone uses
	// VLAN + at least one more L2 protocol; 86% BGP, 31% OSPF.
	pr.vlanCount = int(math.Round(r.LogNormal(2.6, 1.1)))
	if pr.vlanCount < 1 {
		pr.vlanCount = 1
	}
	if pr.vlanCount > 400 {
		pr.vlanCount = 400
	}
	pr.useBGP = r.Bool(0.86)
	pr.useOSPF = r.Bool(0.31)
	pr.useSTP = r.Bool(0.9)
	pr.useLAG = r.Bool(0.6)
	pr.useUDLD = r.Bool(0.35)
	pr.useDHCPR = r.Bool(0.4)
	pr.mstpRegions = 1 + r.Intn(2)
	pr.lagProb = 0.15 + 0.75*r.Float64()
	pr.vlanCarry = 0.25 + 0.6*r.Float64()
	pr.editRate = r.LogNormal(0.0, 0.8) // median 1 extra commit, long tail

	// Operational traits (Fig 12): the change-event rate is log-normal
	// with 10th/90th percentiles near 3/34 and is correlated with network
	// size (the paper's Fig 12(a): Pearson 0.64 between monthly changes
	// and device count), though several large networks change rarely and
	// some small ones churn, via the independent noise term.
	sizeFactor := 0.45 * math.Log(float64(pr.deviceCount)/12.0)
	pr.eventRate = r.LogNormal(math.Log(meanEventsPerMonth)+sizeFactor, 1.0)
	if pr.eventRate > 150 {
		pr.eventRate = 150
	}
	pr.autoProp = clamp01(r.Normal(0.45, 0.22))
	pr.devicesPerEvent = 0.25 + r.Exponential(0.45) // mean extra devices
	pr.scriptUnderUser = 0.05
	pr.kindWeights = drawKindWeights(pr, r)
	return pr
}

// drawKindWeights draws the network's change-type mix. Base weights follow
// Fig 12(c): interface changes most common, then pool (where load
// balancers exist), ACL, user, router; each network perturbs the base so
// the mix is diverse (e.g. ~5% of networks make mostly router changes).
func drawKindWeights(pr *profile, r *rng.RNG) []float64 {
	base := make([]float64, numChangeKinds)
	base[ckInterfaceEdit] = 3.0
	base[ckVLANAdd] = 0.7
	base[ckVLANEdit] = 0.8
	base[ckACLEdit] = 1.4
	base[ckPoolUpdate] = 0
	if pr.hasMiddlebox {
		base[ckPoolUpdate] = 2.0
	}
	base[ckUserChange] = 1.0
	base[ckRouterChange] = 0.5
	if r.Bool(0.05) {
		base[ckRouterChange] = 6 // router-heavy minority (Fig 12(c))
	}
	base[ckMgmtChange] = 0.6
	base[ckQoSChange] = 0.3
	base[ckSflowChange] = 0.3
	base[ckDHCPRelayChange] = 0.25
	base[ckPolicyChange] = 0.35
	// Multiplicative jitter per kind.
	for i := range base {
		base[i] *= math.Exp(r.Normal(0, 0.5))
	}
	return base
}

// kindAutomationBias returns the relative likelihood a change of the given
// kind is automated. Pool changes are the most automated (77% of networks
// automate more than half of them), and sflow/QoS are the most frequently
// automated types overall (Appendix A.2).
func kindAutomationBias(k changeKind) float64 {
	switch k {
	case ckPoolUpdate:
		return 2.2
	case ckSflowChange, ckQoSChange:
		return 2.6
	case ckACLEdit:
		return 1.4
	case ckInterfaceEdit:
		return 1.1
	case ckRouterChange:
		return 0.4
	default:
		return 0.8
	}
}

func clamp01(v float64) float64 {
	if v < 0.02 {
		return 0.02
	}
	if v > 0.95 {
		return 0.95
	}
	return v
}

// rolePlan returns the role of each device given the network size. Every
// network gets switches; larger networks add routers; 71% of networks
// include at least one middlebox; 86% have devices in multiple roles.
func rolePlan(pr *profile, r *rng.RNG) []netmodel.Role {
	n := pr.deviceCount
	roles := make([]netmodel.Role, 0, n)
	routers := 0
	if n >= 3 {
		// Stochastic role plan: the router/middlebox share varies across
		// networks rather than being a fixed function of size.
		routers = 1 + r.Poisson(float64(n)/12)
		if routers > 8 {
			routers = 8
		}
	}
	if pr.useBGP && routers == 0 {
		routers = 1 // a BGP-speaking network needs a router
	}
	mboxes := 0
	if pr.hasMiddlebox {
		mboxes = 1 + r.Poisson(float64(n)/15)
		if mboxes > 6 {
			mboxes = 6
		}
	}
	for i := 0; i < routers && len(roles) < n; i++ {
		roles = append(roles, netmodel.RoleRouter)
	}
	mboxKinds := []netmodel.Role{netmodel.RoleFirewall, netmodel.RoleLoadBalancer, netmodel.RoleADC}
	for i := 0; i < mboxes && len(roles) < n; i++ {
		roles = append(roles, mboxKinds[r.Intn(len(mboxKinds))])
	}
	for len(roles) < n {
		roles = append(roles, netmodel.RoleSwitch)
	}
	r.Shuffle(len(roles), func(i, j int) { roles[i], roles[j] = roles[j], roles[i] })
	return roles
}
