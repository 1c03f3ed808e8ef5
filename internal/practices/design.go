package practices

import (
	"slices"

	"mpa/internal/confmodel"
	"mpa/internal/netmodel"
	"mpa/internal/routing"
	"mpa/internal/stats"
)

// designMetrics fills the design-practice metrics (D1-D6) from inventory
// records and the facts of the end-of-month configuration states: devs,
// one per device with a config, in inventory order, whose sums nf holds.
func (e *Engine) designMetrics(m Metrics, nw *netmodel.Network, devs []*deviceFacts, nf *netFacts) {
	// D2: physical composition from inventory.
	m[MetricDevices] = float64(len(nw.Devices))
	m[MetricVendors] = float64(len(nw.Vendors()))
	m[MetricModels] = float64(len(nw.Models()))
	m[MetricRoles] = float64(len(nw.Roles()))
	m[MetricFirmwareVersions] = float64(len(nw.Firmwares()))

	// D3: hardware and firmware heterogeneity — normalized entropy of the
	// (model, role) and (firmware, role) joint distributions over devices.
	m[MetricHardwareEntropy] = jointEntropy(nw, func(d *netmodel.Device) string {
		return d.Model + "|" + d.Role.String()
	})
	m[MetricFirmwareEntropy] = jointEntropy(nw, func(d *netmodel.Device) string {
		return d.Firmware + "|" + d.Role.String()
	})

	// D4: data-plane construct usage from parsed configurations.
	m[MetricVLANs] = float64(len(nf.vlans))
	m[MetricLAGGroups] = float64(nf.lags)
	l2 := 0
	for _, n := range nf.l2 {
		if n > 0 {
			l2++
		}
	}
	m[MetricL2Protocols] = float64(l2)

	// D5: control-plane structure — routing instances.
	var bgpProcs, ospfProcs []routing.Process
	for _, f := range devs {
		if f.bgp != nil {
			bgpProcs = append(bgpProcs, *f.bgp)
		}
		if f.ospf != nil {
			ospfProcs = append(ospfProcs, *f.ospf)
		}
	}
	bgp := routing.SummarizeProcesses(bgpProcs)
	ospf := routing.SummarizeProcesses(ospfProcs)
	m[MetricBGPInstances] = float64(bgp.Count)
	m[MetricOSPFInstances] = float64(ospf.Count)
	m[MetricAvgBGPSize] = bgp.AvgSize
	m[MetricAvgOSPFSize] = ospf.AvgSize
	l3 := 0
	if bgp.Count > 0 {
		l3++
	}
	if ospf.Count > 0 {
		l3++
	}
	m[MetricL3Protocols] = float64(l3)

	// D6: configuration complexity — mean intra- and inter-device
	// reference counts (Benson et al.'s metrics).
	if len(devs) > 0 {
		m[MetricIntraComplexity] = float64(nf.intra) / float64(len(devs))
		m[MetricInterComplexity] = float64(nf.interRefs(devs)) / float64(len(devs))
	}
}

// The L2 constructs of D4 whose use a device's config shows.
const (
	l2VLAN = iota
	l2STP
	l2LAG
	l2UDLD
	l2DHCPRelay
	numL2
)

// deviceFacts is what the design metrics read of one device's config,
// computed once per config: the engine keeps a device's facts until its
// config changes, and across ingests while its snapshot stays the one
// entering the month (Facts). They hold no config or stanza.
type deviceFacts struct {
	host    string   // the config's hostname
	intra   int      // confmodel.IntraDeviceRefs
	bgpRefs int      // BGP neighbors that are another device's management IP
	vlans   []string // distinct VLAN ids
	areas   []string // distinct OSPF areas
	lags    int      // distinct LAG groups
	l2      [numL2]bool
	// The device's BGP and OSPF processes, as routing.SummarizeProcesses
	// reads them; nil when it runs none.
	bgp, ospf *routing.Process
}

// newDeviceFacts computes the facts of c, whose device is in a network
// with the given management-IP owners.
func newDeviceFacts(c *confmodel.Config, mgmtOwner map[string]string) *deviceFacts {
	f := &deviceFacts{host: c.Hostname, intra: confmodel.IntraDeviceRefs(c)}
	// Peers and keys come out of option maps in random order; sorted,
	// equal configs have equal facts, and a disk entry's bytes are the
	// same on every run. Instances do not depend on the order.
	if bgp := c.OfType(confmodel.TypeBGP); len(bgp) > 0 {
		f.bgp = &routing.Process{Host: c.Hostname, Peers: routing.BGPPeers(bgp, mgmtOwner)}
		slices.Sort(f.bgp.Peers)
		for _, owner := range f.bgp.Peers {
			if owner != c.Hostname {
				f.bgpRefs++
			}
		}
	}
	for _, s := range c.OfType(confmodel.TypeVLAN) {
		id := s.Get("vlan-id")
		if id == "" {
			id = s.Name
		}
		f.vlans = append(f.vlans, id)
	}
	ospf := c.OfType(confmodel.TypeOSPF)
	for _, s := range ospf {
		if area := s.Get("area"); area != "" {
			f.areas = append(f.areas, area)
		}
	}
	if keys := routing.OSPFKeys(ospf); len(keys) > 0 {
		slices.Sort(keys)
		f.ospf = &routing.Process{Host: c.Hostname, Keys: keys}
	}
	var lags []string
	for _, s := range c.OfType(confmodel.TypeInterface) {
		if g := s.Get("lag-group"); g != "" {
			lags = append(lags, g)
		}
	}
	slices.Sort(f.vlans)
	f.vlans = slices.Compact(f.vlans)
	slices.Sort(f.areas)
	f.areas = slices.Compact(f.areas)
	slices.Sort(lags)
	f.lags = len(slices.Compact(lags))
	udld := c.Get(confmodel.TypeUDLD, "global")
	f.l2 = [numL2]bool{
		l2VLAN:      len(f.vlans) > 0,
		l2STP:       len(c.OfType(confmodel.TypeSTP)) > 0,
		l2LAG:       f.lags > 0,
		l2UDLD:      udld != nil && udld.Get("enable") == "true",
		l2DHCPRelay: len(c.OfType(confmodel.TypeDHCPRelay)) > 0,
	}
	return f
}

// netFacts sums the facts of a network's device configs. The engine adds
// a device's facts when its config first appears and swaps them when it
// changes, so a month's design metrics cost O(changed configs), not
// O(network size).
type netFacts struct {
	intra, bgpRefs, lags int
	vlans, areas         map[string]int // devices carrying each VLAN id, OSPF area
	// shared is the sum over VLAN ids and OSPF areas of n(n-1) for n
	// carrying devices: each device's references to the others.
	shared int
	l2     [numL2]int     // devices using each L2 construct
	hosts  map[string]int // configs with each hostname
}

func newNetFacts() *netFacts {
	return &netFacts{vlans: map[string]int{}, areas: map[string]int{}, hosts: map[string]int{}}
}

// add adds (sign 1) or removes (sign -1) one device's facts.
func (nf *netFacts) add(f *deviceFacts, sign int) {
	nf.intra += sign * f.intra
	nf.bgpRefs += sign * f.bgpRefs
	nf.lags += sign * f.lags
	for k, used := range f.l2 {
		if used {
			nf.l2[k] += sign
		}
	}
	nf.shared += count(nf.vlans, f.vlans, sign) + count(nf.areas, f.areas, sign)
	count(nf.hosts, []string{f.host}, sign)
}

// count adds sign to the count of each key and returns the change in the
// sum over keys of n(n-1); a key whose count drops to zero is deleted.
func count(m map[string]int, keys []string, sign int) int {
	d := 0
	for _, k := range keys {
		n := m[k]
		if sign > 0 {
			d += 2 * n
			m[k] = n + 1
		} else if d -= 2 * (n - 1); n == 1 {
			delete(m, k)
		} else {
			m[k] = n - 1
		}
	}
	return d
}

// interRefs returns the network's total inter-device references over
// devs, the facts nf holds, in inventory order. A device references each
// other device's management IP among its BGP neighbors, and each other
// device carrying one of its VLAN ids or OSPF areas. The count is kept
// per hostname, so when configs share one, the last of them counts for
// it.
func (nf *netFacts) interRefs(devs []*deviceFacts) int {
	if len(nf.hosts) == len(devs) {
		return nf.bgpRefs + nf.shared
	}
	byHost := make(map[string]int, len(nf.hosts))
	for _, f := range devs {
		n := f.bgpRefs
		for _, v := range f.vlans {
			n += nf.vlans[v] - 1
		}
		for _, a := range f.areas {
			n += nf.areas[a] - 1
		}
		byHost[f.host] = n
	}
	total := 0
	for _, n := range byHost {
		total += n
	}
	return total
}

// jointEntropy computes the normalized entropy of a per-device symbol
// (paper D3): -sum p_ij log2 p_ij / log2 N where p_ij is the fraction of
// devices with symbol (i, j) and N the network size.
func jointEntropy(nw *netmodel.Network, symbol func(*netmodel.Device) string) float64 {
	ids := map[string]int{}
	xs := make([]int, 0, len(nw.Devices))
	for _, d := range nw.Devices {
		key := symbol(d)
		id, ok := ids[key]
		if !ok {
			id = len(ids)
			ids[key] = id
		}
		xs = append(xs, id)
	}
	return stats.NormalizedEntropy(xs)
}

// operationalMetrics fills the operational-practice metrics (O1-O4) from
// the month's inferred changes and returns how many change events the
// grouping produced.
func (e *Engine) operationalMetrics(m Metrics, nw *netmodel.Network, changes []ChangeDetail) int {
	m[MetricConfigChanges] = float64(len(changes))
	devs := map[string]bool{}
	for _, c := range changes {
		devs[c.Device] = true
	}
	m[MetricDevicesChanged] = float64(len(devs))
	if len(nw.Devices) > 0 {
		m[MetricFracDevChanged] = float64(len(devs)) / float64(len(nw.Devices))
	}
	types := map[confmodel.Type]bool{}
	for _, c := range changes {
		for _, t := range c.Types {
			types[t] = true
		}
	}
	m[MetricChangeTypes] = float64(len(types))

	evts := GroupChanges(changes, DefaultDelta)
	m[MetricChangeEvents] = float64(len(evts))
	// Per-event metrics are undefined when no events occurred (paper
	// §5.2.2); the pipeline represents them as zero.
	m[MetricDevicesPerEvent] = 0
	m[MetricFracEventsAuto] = 0
	m[MetricFracEventsIface] = 0
	m[MetricFracEventsACL] = 0
	m[MetricFracEventsRtr] = 0
	m[MetricFracEventsMbox] = 0
	if len(evts) == 0 {
		return 0
	}
	var totalDevs, auto, iface, acl, rtr, mbox int
	for _, ev := range evts {
		evDevs := map[string]bool{}
		allAuto := true
		var hasIface, hasACL, hasRtr, hasMbox bool
		for _, c := range ev {
			evDevs[c.Device] = true
			allAuto = allAuto && c.Automated
			hasIface = hasIface || c.HasType(confmodel.TypeInterface)
			hasACL = hasACL || c.HasType(confmodel.TypeACL)
			hasRtr = hasRtr || c.HasRouterType()
			hasMbox = hasMbox || c.Middlebox
		}
		totalDevs += len(evDevs)
		if allAuto {
			auto++
		}
		if hasIface {
			iface++
		}
		if hasACL {
			acl++
		}
		if hasRtr {
			rtr++
		}
		if hasMbox {
			mbox++
		}
	}
	n := float64(len(evts))
	m[MetricDevicesPerEvent] = float64(totalDevs) / n
	m[MetricFracEventsAuto] = float64(auto) / n
	m[MetricFracEventsIface] = float64(iface) / n
	m[MetricFracEventsACL] = float64(acl) / n
	m[MetricFracEventsRtr] = float64(rtr) / n
	m[MetricFracEventsMbox] = float64(mbox) / n
	return len(evts)
}
