package practices

import (
	"mpa/internal/confmodel"
	"mpa/internal/netmodel"
	"mpa/internal/routing"
	"mpa/internal/stats"
)

// designMetrics fills the design-practice metrics (D1-D6) from inventory
// records and the end-of-month configuration states; intra is the sum of
// the states' IntraDeviceRefs.
func (e *Engine) designMetrics(m Metrics, nw *netmodel.Network, configs []*confmodel.Config, intra int, mgmtOwner map[string]string) {
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
	vlanIDs := map[string]bool{}
	lagGroups := 0
	var usesSTP, usesLAG, usesUDLD, usesDHCPR, usesVLAN bool
	for _, c := range configs {
		devLAGs := map[string]bool{}
		for _, s := range c.OfType(confmodel.TypeVLAN) {
			id := s.Get("vlan-id")
			if id == "" {
				id = s.Name
			}
			vlanIDs[id] = true
			usesVLAN = true
		}
		for _, s := range c.OfType(confmodel.TypeInterface) {
			if g := s.Get("lag-group"); g != "" {
				devLAGs[g] = true
				usesLAG = true
			}
		}
		lagGroups += len(devLAGs)
		if len(c.OfType(confmodel.TypeSTP)) > 0 {
			usesSTP = true
		}
		if s := c.Get(confmodel.TypeUDLD, "global"); s != nil && s.Get("enable") == "true" {
			usesUDLD = true
		}
		if len(c.OfType(confmodel.TypeDHCPRelay)) > 0 {
			usesDHCPR = true
		}
	}
	m[MetricVLANs] = float64(len(vlanIDs))
	m[MetricLAGGroups] = float64(lagGroups)
	l2 := 0
	for _, used := range []bool{usesVLAN, usesSTP, usesLAG, usesUDLD, usesDHCPR} {
		if used {
			l2++
		}
	}
	m[MetricL2Protocols] = float64(l2)

	// D5: control-plane structure — routing instances.
	bgp := routing.Summarize(configs, mgmtOwner, routing.BGP)
	ospf := routing.Summarize(configs, mgmtOwner, routing.OSPF)
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
	if len(configs) > 0 {
		m[MetricIntraComplexity] = float64(intra) / float64(len(configs))
		inter := confmodel.NetworkInterRefs(configs, mgmtOwner)
		total := 0
		for _, n := range inter {
			total += n
		}
		m[MetricInterComplexity] = float64(total) / float64(len(configs))
	}
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
