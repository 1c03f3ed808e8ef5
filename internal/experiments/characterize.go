package experiments

import (
	"fmt"
	"strings"
	"time"

	"mpa/internal/ciscoios"
	"mpa/internal/confmodel"
	"mpa/internal/junos"
	"mpa/internal/netmodel"
	"mpa/internal/practices"
	"mpa/internal/report"
	"mpa/internal/routing"
	"mpa/internal/stats"
)

// Table2 reports the dataset sizes (paper Table 2).
func Table2(env *Env) Report {
	snapBytes := env.OSP.Archive.TotalBytes()
	var ticketBytes int64
	for _, t := range env.OSP.Tickets.All() {
		ticketBytes += int64(len(t.Symptom) + len(t.Notes) + len(t.Network))
	}
	tb := report.NewTable("Property", "Value")
	tb.AddRow("Months", fmt.Sprintf("%d, %s - %s", len(env.Window()), env.Params.Start, env.Params.End))
	tb.AddRow("Networks", fmt.Sprint(len(env.OSP.Inventory.Networks)))
	tb.AddRow("Services", fmt.Sprint(env.OSP.Inventory.ServiceCount()))
	tb.AddRow("Devices", fmt.Sprint(env.OSP.Inventory.DeviceCount()))
	tb.AddRow("Config snapshots", fmt.Sprintf("%d, ~%dMB", env.OSP.Archive.SnapshotCount(), snapBytes>>20))
	tb.AddRow("Tickets", fmt.Sprintf("%d, ~%dKB", env.OSP.Tickets.Len(), ticketBytes>>10))
	return Report{
		ID:    "table2",
		Title: "Table 2: size of datasets",
		Text:  tb.String(),
		Numbers: map[string]float64{
			"months":    float64(len(env.Window())),
			"networks":  float64(len(env.OSP.Inventory.Networks)),
			"services":  float64(env.OSP.Inventory.ServiceCount()),
			"devices":   float64(env.OSP.Inventory.DeviceCount()),
			"snapshots": float64(env.OSP.Archive.SnapshotCount()),
			"tickets":   float64(env.OSP.Tickets.Len()),
		},
	}
}

// Figure3 sweeps the change-event grouping threshold delta and reports the
// distribution of change events per network-month for each value (paper
// Figure 3: NA, 1, 2, 5, 10, 15, 30 minutes).
func Figure3(env *Env) Report {
	deltas := []int{0, 1, 2, 5, 10, 15, 30}
	var b strings.Builder
	numbers := map[string]float64{}
	for _, mins := range deltas {
		var counts []float64
		for _, name := range env.sortedNetworkNames() {
			for _, ma := range env.Analysis[name] {
				groups := practices.GroupChanges(ma.Changes, time.Duration(mins)*time.Minute)
				counts = append(counts, float64(len(groups)))
			}
		}
		box := stats.Box(counts)
		label := fmt.Sprintf("delta=%dmin", mins)
		if mins == 0 {
			label = "delta=NA"
		}
		b.WriteString(report.BoxSummary(label, box) + "\n")
		numbers[fmt.Sprintf("median:%d", mins)] = box.Median
		numbers[fmt.Sprintf("q75:%d", mins)] = box.Q75
	}
	b.WriteString("\nLarger thresholds merge events; the paper settles on delta = 5 minutes.\n")
	return Report{
		ID:      "figure3",
		Title:   "Figure 3: change events per network-month vs grouping threshold",
		Text:    b.String(),
		Numbers: numbers,
	}
}

// finalConfigs parses each device's final archived snapshot, grouped per
// network — for characterization passes that need full configurations
// (e.g. MSTP instance extraction, which is not one of the 28 metrics).
func (e *Env) finalConfigs() map[string][]*confmodel.Config {
	cisco := ciscoios.Dialect{}
	jnp := junos.Dialect{}
	out := map[string][]*confmodel.Config{}
	for _, nw := range e.OSP.Inventory.Networks {
		for _, dev := range nw.Devices {
			hist := e.OSP.Archive.Snapshots(dev.Name)
			if len(hist) == 0 {
				continue
			}
			var d confmodel.Dialect = jnp
			if dev.Vendor == netmodel.VendorCisco {
				d = cisco
			}
			cfg, err := d.Parse(hist[len(hist)-1].Text)
			if err != nil {
				continue // generator-produced text always parses
			}
			out[nw.Name] = append(out[nw.Name], cfg)
		}
	}
	return out
}

// lastMetrics returns each network's final-month metrics.
func (e *Env) lastMetrics() map[string]practices.Metrics {
	out := map[string]practices.Metrics{}
	for name, mas := range e.Analysis {
		if len(mas) > 0 {
			out[name] = mas[len(mas)-1].Metrics
		}
	}
	return out
}

// Figure11 characterizes design practices across networks: device
// heterogeneity, protocol usage, VLAN counts, referential complexity, and
// routing-instance counts (paper Figure 11 / Appendix A.1).
func Figure11(env *Env) Report {
	last := env.lastMetrics()
	collect := func(metric string) []float64 {
		var out []float64
		for _, name := range env.sortedNetworkNames() {
			if m, ok := last[name]; ok {
				out = append(out, m[metric])
			}
		}
		return out
	}
	var b strings.Builder
	numbers := map[string]float64{}

	hw := collect(practices.MetricHardwareEntropy)
	fw := collect(practices.MetricFirmwareEntropy)
	b.WriteString("(a) Device heterogeneity (normalized entropy):\n")
	fmt.Fprintf(&b, "    hardware: %s\n", report.CDFSummary(hw))
	fmt.Fprintf(&b, "    firmware: %s\n", report.CDFSummary(fw))
	highHW := 1 - stats.CDFAt(hw, 0.67)
	fmt.Fprintf(&b, "    median hardware entropy %.2f; %.0f%% of networks above 0.67\n",
		stats.Median(hw), 100*highHW)
	numbers["hw_entropy_median"] = stats.Median(hw)
	numbers["hw_entropy_frac_high"] = highHW

	l2 := collect(practices.MetricL2Protocols)
	l3 := collect(practices.MetricL3Protocols)
	both := make([]float64, len(l2))
	for i := range l2 {
		both[i] = l2[i] + l3[i]
	}
	b.WriteString("(b) Protocol usage (count of protocols in use):\n")
	fmt.Fprintf(&b, "    L2:   %s\n", report.CDFSummary(l2))
	fmt.Fprintf(&b, "    L3:   %s\n", report.CDFSummary(l3))
	fmt.Fprintf(&b, "    both: %s\n", report.CDFSummary(both))
	numbers["protocols_median"] = stats.Median(both)
	numbers["protocols_max"] = stats.Max(both)

	vlans := collect(practices.MetricVLANs)
	b.WriteString("(c) No. of VLANs:\n")
	fmt.Fprintf(&b, "    %s\n", report.CDFSummary(vlans))
	fmt.Fprintf(&b, "    %.0f%% of networks configure <5 VLANs; %.0f%% configure >100\n",
		100*stats.CDFAt(vlans, 4.999), 100*(1-stats.CDFAt(vlans, 100)))
	numbers["vlans_frac_over100"] = 1 - stats.CDFAt(vlans, 100)

	intra := collect(practices.MetricIntraComplexity)
	inter := collect(practices.MetricInterComplexity)
	b.WriteString("(d) Referential complexity (mean refs per device):\n")
	fmt.Fprintf(&b, "    intra: %s\n", report.CDFSummary(intra))
	fmt.Fprintf(&b, "    inter: %s\n", report.CDFSummary(inter))
	numbers["intra_p90_over_p10"] = ratio(stats.Percentile(intra, 90), stats.Percentile(intra, 10))
	numbers["inter_p90_over_p10"] = ratio(stats.Percentile(inter, 90), stats.Percentile(inter, 10))

	bgp := collect(practices.MetricBGPInstances)
	ospf := collect(practices.MetricOSPFInstances)
	configs := env.finalConfigs()
	var mstp []float64
	for _, name := range env.sortedNetworkNames() {
		s := routing.Summarize(configs[name], nil, routing.MSTP)
		mstp = append(mstp, float64(s.Count))
	}
	b.WriteString("(e) Routing instances:\n")
	fmt.Fprintf(&b, "    BGP:  %s (%.0f%% of networks use BGP)\n",
		report.CDFSummary(bgp), 100*fracPositive(bgp))
	fmt.Fprintf(&b, "    OSPF: %s (%.0f%% of networks use OSPF)\n",
		report.CDFSummary(ospf), 100*fracPositive(ospf))
	fmt.Fprintf(&b, "    MSTP: %s\n", report.CDFSummary(mstp))
	numbers["bgp_usage"] = fracPositive(bgp)
	numbers["ospf_usage"] = fracPositive(ospf)

	return Report{
		ID:      "figure11",
		Title:   "Figure 11: characterization of design practices",
		Text:    b.String(),
		Numbers: numbers,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fracPositive(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > 0 {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Figure12 characterizes configuration changes: change volume vs size,
// device churn, change-type mix, automation, and change-event counts
// (paper Figure 12 / Appendix A.2).
func Figure12(env *Env) Report {
	var b strings.Builder
	numbers := map[string]float64{}

	// (a) avg changes/month vs network size.
	var sizes, changeRates []float64
	for _, name := range env.sortedNetworkNames() {
		mas := env.Analysis[name]
		sizes = append(sizes, mas[0].Metrics[practices.MetricDevices])
		changeRates = append(changeRates, monthlyMean(mas, practices.MetricConfigChanges))
	}
	corr := stats.Pearson(sizes, changeRates)
	b.WriteString("(a) Avg. config changes per month vs network size:\n")
	fmt.Fprintf(&b, "    Pearson correlation = %.2f (paper: 0.64)\n", corr)
	numbers["size_change_correlation"] = corr

	// (b) fraction of devices changed per month and per year.
	var perMonth, perYear []float64
	for _, name := range env.sortedNetworkNames() {
		mas := env.Analysis[name]
		devTotal := mas[0].Metrics[practices.MetricDevices]
		changedEver := map[string]bool{}
		for _, ma := range mas {
			perMonth = append(perMonth, ma.Metrics[practices.MetricFracDevChanged])
			for _, c := range ma.Changes {
				changedEver[c.Device] = true
			}
		}
		if devTotal > 0 {
			perYear = append(perYear, float64(len(changedEver))/devTotal)
		}
	}
	b.WriteString("(b) Fraction of devices changed:\n")
	fmt.Fprintf(&b, "    per month:  %s\n", report.CDFSummary(perMonth))
	fmt.Fprintf(&b, "    per window: %s\n", report.CDFSummary(perYear))
	numbers["frac_dev_month_median"] = stats.Median(perMonth)
	numbers["frac_dev_window_median"] = stats.Median(perYear)

	// (c) most frequent change types: per network, the fraction of
	// changes touching each type.
	typeTargets := []struct {
		label string
		typ   confmodel.Type
	}{
		{"iface", confmodel.TypeInterface},
		{"pool", confmodel.TypePool},
		{"acl", confmodel.TypeACL},
		{"user", confmodel.TypeUser},
	}
	b.WriteString("(c) Fraction of changes touching a stanza type (per network):\n")
	for _, tt := range typeTargets {
		fracs := changeFracs(env, func(c practices.ChangeDetail) bool { return c.HasType(tt.typ) })
		fmt.Fprintf(&b, "    %-6s %s\n", tt.label+":", report.CDFSummary(fracs))
		numbers["type_median:"+tt.label] = stats.Median(fracs)
	}
	// Router changes separately (bgp or ospf).
	routerFracs := changeFracs(env, practices.ChangeDetail.HasRouterType)
	fmt.Fprintf(&b, "    %-6s %s\n", "router:", report.CDFSummary(routerFracs))
	numbers["type_median:router"] = stats.Median(routerFracs)
	numbers["router_frac_heavy"] = 1 - stats.CDFAt(routerFracs, 0.5)

	// (d) fraction of changes automated per month.
	autoFracs := changeFracs(env, func(c practices.ChangeDetail) bool { return c.Automated })
	b.WriteString("(d) Fraction of changes automated (per network):\n")
	fmt.Fprintf(&b, "    %s\n", report.CDFSummary(autoFracs))
	halfAuto := 1 - stats.CDFAt(autoFracs, 0.5)
	fmt.Fprintf(&b, "    %.0f%% of networks automate more than half their changes\n", 100*halfAuto)
	numbers["frac_networks_half_automated"] = halfAuto

	// (e) avg change events per month.
	var eventRates []float64
	for _, name := range env.sortedNetworkNames() {
		eventRates = append(eventRates, monthlyMean(env.Analysis[name], practices.MetricChangeEvents))
	}
	b.WriteString("(e) Avg. change events per month (per network):\n")
	fmt.Fprintf(&b, "    %s\n", report.CDFSummary(eventRates))
	numbers["events_p10"] = stats.Percentile(eventRates, 10)
	numbers["events_p90"] = stats.Percentile(eventRates, 90)

	return Report{
		ID:      "figure12",
		Title:   "Figure 12: characterization of configuration changes",
		Text:    b.String(),
		Numbers: numbers,
	}
}

// monthlyMean returns a network's mean of metric over its months.
func monthlyMean(mas []practices.MonthAnalysis, metric string) float64 {
	var total float64
	for _, ma := range mas {
		total += ma.Metrics[metric]
	}
	return total / float64(len(mas))
}

// changeFracs returns, for each network with changes in name order, the
// fraction of its changes that satisfy pred.
func changeFracs(env *Env, pred func(practices.ChangeDetail) bool) []float64 {
	var out []float64
	for _, name := range env.sortedNetworkNames() {
		total, hit := 0, 0
		for _, ma := range env.Analysis[name] {
			for _, c := range ma.Changes {
				total++
				if pred(c) {
					hit++
				}
			}
		}
		if total > 0 {
			out = append(out, float64(hit)/float64(total))
		}
	}
	return out
}

// Figure13 characterizes change events: devices changed per event and the
// fraction of events touching middleboxes (paper Figure 13).
func Figure13(env *Env) Report {
	var devsPerEvent, mboxFracs []float64
	for _, name := range env.sortedNetworkNames() {
		var dpe, mbox, n float64
		for _, ma := range env.Analysis[name] {
			if ma.Metrics[practices.MetricChangeEvents] == 0 {
				continue
			}
			dpe += ma.Metrics[practices.MetricDevicesPerEvent]
			mbox += ma.Metrics[practices.MetricFracEventsMbox]
			n++
		}
		if n > 0 {
			devsPerEvent = append(devsPerEvent, dpe/n)
			mboxFracs = append(mboxFracs, mbox/n)
		}
	}
	var b strings.Builder
	b.WriteString("(a) Mean devices changed per event (per network):\n")
	fmt.Fprintf(&b, "    %s\n", report.CDFSummary(devsPerEvent))
	smallEvents := stats.CDFAt(devsPerEvent, 2)
	fmt.Fprintf(&b, "    %.0f%% of networks average <=2 devices per event\n", 100*smallEvents)
	b.WriteString("(b) Fraction of events involving a middlebox (per network):\n")
	fmt.Fprintf(&b, "    %s\n", report.CDFSummary(mboxFracs))
	return Report{
		ID:    "figure13",
		Title: "Figure 13: characterization of change events",
		Text:  b.String(),
		Numbers: map[string]float64{
			"devs_per_event_median": stats.Median(devsPerEvent),
			"frac_small_events":     smallEvents,
			"mbox_frac_median":      stats.Median(mboxFracs),
		},
	}
}
