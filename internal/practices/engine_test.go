package practices

import (
	"math"
	"testing"
	"time"

	"mpa/internal/confmodel"
	"mpa/internal/osp"
)

// analysis over a shared small OSP, computed once.
var (
	testOSP      = osp.Generate(osp.Small(11))
	testAnalysis = mustAnalyze()
)

func mustAnalyze() map[string][]MonthAnalysis {
	e := NewEngine(testOSP.Inventory, testOSP.Archive)
	out, err := e.Analyze(testOSP.Params.Months())
	if err != nil {
		panic(err)
	}
	return out
}

func TestAllMetricsPresent(t *testing.T) {
	for name, mas := range testAnalysis {
		for _, ma := range mas {
			for _, metric := range MetricNames {
				if _, ok := ma.Metrics[metric]; !ok {
					t.Fatalf("network %s month %v missing metric %s", name, ma.Month, metric)
				}
			}
		}
	}
}

func TestMetricNamesCount(t *testing.T) {
	// The paper's confounder set: all 28 practice metrics (§5.2.3).
	if len(MetricNames) != 28 {
		t.Fatalf("MetricNames has %d entries, want 28", len(MetricNames))
	}
	seen := map[string]bool{}
	for _, n := range MetricNames {
		if seen[n] {
			t.Fatalf("duplicate metric %s", n)
		}
		seen[n] = true
	}
}

func TestCategorySplit(t *testing.T) {
	design, op := 0, 0
	for _, n := range MetricNames {
		switch Category(n) {
		case "design":
			design++
		case "operational":
			op++
		default:
			t.Fatalf("metric %s has unknown category", n)
		}
	}
	if design != 17 || op != 11 {
		t.Errorf("design=%d operational=%d, want 17/11", design, op)
	}
	if Category("bogus") != "unknown" {
		t.Error("unknown category mapping")
	}
}

func TestDisplayNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range MetricNames {
		d := DisplayName(n)
		if d == "" || seen[d] {
			t.Errorf("display name for %s is %q (dup or empty)", n, d)
		}
		seen[d] = true
	}
}

func TestDeviceCountsMatchInventory(t *testing.T) {
	for _, nw := range testOSP.Inventory.Networks {
		for _, ma := range testAnalysis[nw.Name] {
			if got := ma.Metrics[MetricDevices]; got != float64(len(nw.Devices)) {
				t.Fatalf("%s: no_devices = %v, inventory %d", nw.Name, got, len(nw.Devices))
			}
			if got := ma.Metrics[MetricModels]; got != float64(len(nw.Models())) {
				t.Fatalf("%s: no_models = %v, inventory %d", nw.Name, got, len(nw.Models()))
			}
		}
	}
}

func TestConfigChangesMatchGroundTruth(t *testing.T) {
	// The inferred per-month change count must equal the generator's
	// ground truth exactly: both count successive differing snapshots.
	for _, nw := range testOSP.Inventory.Networks {
		truth := testOSP.Truth[nw.Name]
		for _, ma := range testAnalysis[nw.Name] {
			want := truth[ma.Month].DeviceChanges
			if got := int(ma.Metrics[MetricConfigChanges]); got != want {
				t.Fatalf("%s %v: inferred %d changes, truth %d", nw.Name, ma.Month, got, want)
			}
			if got := int(ma.Metrics[MetricDevicesChanged]); got != truth[ma.Month].DevicesChanged {
				t.Fatalf("%s %v: inferred %d devices changed, truth %d",
					nw.Name, ma.Month, got, truth[ma.Month].DevicesChanged)
			}
		}
	}
}

func TestChangeEventsCloseToGroundTruth(t *testing.T) {
	// Event grouping can merge two generated events that landed within
	// five minutes of each other, and can split a long edit session whose
	// middle snapshots were no-ops, so exact per-month agreement is not
	// expected — but the aggregate must track closely.
	var totalGot, totalWant float64
	for _, nw := range testOSP.Inventory.Networks {
		truth := testOSP.Truth[nw.Name]
		for _, ma := range testAnalysis[nw.Name] {
			totalGot += ma.Metrics[MetricChangeEvents]
			totalWant += float64(truth[ma.Month].Events)
		}
	}
	if totalWant == 0 {
		t.Fatal("no events in ground truth")
	}
	if ratio := totalGot / totalWant; ratio < 0.93 || ratio > 1.07 {
		t.Errorf("inferred/truth event ratio = %.3f, want within [0.93, 1.07]", ratio)
	}
}

func TestChangeTypesMatchGroundTruth(t *testing.T) {
	mismatches, total := 0, 0
	for _, nw := range testOSP.Inventory.Networks {
		truth := testOSP.Truth[nw.Name]
		for _, ma := range testAnalysis[nw.Name] {
			total++
			if int(ma.Metrics[MetricChangeTypes]) != truth[ma.Month].ChangeTypes {
				mismatches++
			}
		}
	}
	if mismatches > 0 {
		t.Errorf("change-type count mismatches in %d/%d network-months", mismatches, total)
	}
}

func TestAutomationFractionTracksTruth(t *testing.T) {
	// Aggregate automated-event fraction should track the ground truth
	// (slack for event merging at boundaries).
	var gotSum, wantSum, n float64
	for _, nw := range testOSP.Inventory.Networks {
		truth := testOSP.Truth[nw.Name]
		for _, ma := range testAnalysis[nw.Name] {
			if truth[ma.Month].Events == 0 {
				continue
			}
			gotSum += ma.Metrics[MetricFracEventsAuto]
			wantSum += truth[ma.Month].FracAutomated
			n++
		}
	}
	if n == 0 {
		t.Fatal("no months with events")
	}
	if math.Abs(gotSum/n-wantSum/n) > 0.03 {
		t.Errorf("mean automated fraction: inferred %.3f vs truth %.3f", gotSum/n, wantSum/n)
	}
}

func TestEventTypeFractionsTrackTruth(t *testing.T) {
	type pair struct{ got, want float64 }
	agg := map[string]*pair{"acl": {}, "iface": {}, "mbox": {}, "router": {}}
	var n float64
	for _, nw := range testOSP.Inventory.Networks {
		truth := testOSP.Truth[nw.Name]
		for _, ma := range testAnalysis[nw.Name] {
			mt := truth[ma.Month]
			if mt.Events == 0 {
				continue
			}
			n++
			agg["acl"].got += ma.Metrics[MetricFracEventsACL]
			agg["acl"].want += mt.FracACLEvents
			agg["iface"].got += ma.Metrics[MetricFracEventsIface]
			agg["iface"].want += mt.FracIfaceEvents
			agg["mbox"].got += ma.Metrics[MetricFracEventsMbox]
			agg["mbox"].want += mt.FracMboxEvents
			agg["router"].got += ma.Metrics[MetricFracEventsRtr]
			agg["router"].want += mt.FracRouterEvts
		}
	}
	for name, p := range agg {
		if math.Abs(p.got/n-p.want/n) > 0.05 {
			t.Errorf("%s fraction: inferred %.3f vs truth %.3f", name, p.got/n, p.want/n)
		}
	}
}

func TestVLANCountsPlausible(t *testing.T) {
	// First-month VLAN count should be close to the network's trait (the
	// union of per-device subsets may be slightly below the trait if some
	// VLAN was never assigned, and grows as VLAN-add events land).
	low := 0
	for _, nw := range testOSP.Inventory.Networks {
		trait := testOSP.Traits[nw.Name]
		first := testAnalysis[nw.Name][0]
		got := first.Metrics[MetricVLANs]
		if got > float64(trait.VLANCount)+20 {
			t.Fatalf("%s: inferred %v VLANs, trait %d", nw.Name, got, trait.VLANCount)
		}
		if got < float64(trait.VLANCount)*0.5 {
			low++
		}
	}
	if low > len(testOSP.Inventory.Networks)/4 {
		t.Errorf("%d networks infer < half their VLAN trait", low)
	}
}

func TestRoutingProtocolDetection(t *testing.T) {
	for _, nw := range testOSP.Inventory.Networks {
		trait := testOSP.Traits[nw.Name]
		ma := testAnalysis[nw.Name][0]
		hasBGP := ma.Metrics[MetricBGPInstances] > 0
		hasOSPF := ma.Metrics[MetricOSPFInstances] > 0
		// BGP presence requires >= 1 router in the network.
		routers := 0
		for _, d := range nw.Devices {
			if d.Role.String() == "router" {
				routers++
			}
		}
		if trait.UsesBGP && routers > 0 && !hasBGP {
			t.Errorf("%s: trait uses BGP but none inferred", nw.Name)
		}
		if !trait.UsesBGP && hasBGP {
			t.Errorf("%s: BGP inferred but trait says unused", nw.Name)
		}
		if !trait.UsesOSPF && hasOSPF {
			t.Errorf("%s: OSPF inferred but trait says unused", nw.Name)
		}
	}
}

func TestEntropiesInRange(t *testing.T) {
	for name, mas := range testAnalysis {
		for _, ma := range mas {
			for _, metric := range []string{MetricHardwareEntropy, MetricFirmwareEntropy} {
				v := ma.Metrics[metric]
				if v < 0 || v > 1 {
					t.Fatalf("%s: %s = %v out of [0,1]", name, metric, v)
				}
			}
		}
	}
}

func TestFractionMetricsInRange(t *testing.T) {
	fracs := []string{
		MetricFracDevChanged, MetricFracEventsAuto, MetricFracEventsIface,
		MetricFracEventsACL, MetricFracEventsRtr, MetricFracEventsMbox,
	}
	for name, mas := range testAnalysis {
		for _, ma := range mas {
			for _, metric := range fracs {
				v := ma.Metrics[metric]
				if v < 0 || v > 1+1e-9 {
					t.Fatalf("%s %v: %s = %v", name, ma.Month, metric, v)
				}
			}
		}
	}
}

func TestComplexityNonNegative(t *testing.T) {
	for name, mas := range testAnalysis {
		for _, ma := range mas {
			if ma.Metrics[MetricIntraComplexity] < 0 || ma.Metrics[MetricInterComplexity] < 0 {
				t.Fatalf("%s: negative complexity", name)
			}
		}
	}
}

func TestIntraComplexityCorrelatesWithVLANs(t *testing.T) {
	// The confounding structure the causal analysis must face: intra-
	// device complexity rises with VLAN count (Cisco interface->VLAN
	// references). Check a positive correlation across networks.
	var vlans, intra []float64
	for _, mas := range testAnalysis {
		vlans = append(vlans, mas[0].Metrics[MetricVLANs])
		intra = append(intra, mas[0].Metrics[MetricIntraComplexity])
	}
	r := pearson(vlans, intra)
	if r < 0.3 {
		t.Errorf("VLAN/intra-complexity correlation = %.3f, want > 0.3", r)
	}
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
		syy += (ys[i] - my) * (ys[i] - my)
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

func TestUnknownNetworkErrors(t *testing.T) {
	e := NewEngine(testOSP.Inventory, testOSP.Archive)
	if _, err := e.analyzeNetwork("no-such-network", testOSP.Params.Months(), nil, newNetScratch(), nil); err == nil {
		t.Fatal("expected error for unknown network")
	}
}

func TestDeltaSweepMonotone(t *testing.T) {
	// Figure 3: larger grouping thresholds can only merge events.
	name := testOSP.Inventory.Networks[0].Name
	var mas []MonthAnalysis
	for _, ma := range testAnalysis[name] {
		mas = append(mas, ma)
	}
	var changes []ChangeDetail
	for _, ma := range mas {
		changes = append(changes, ma.Changes...)
	}
	if len(changes) == 0 {
		t.Skip("no changes in first network")
	}
	prev := len(changes) + 1
	for _, mins := range []int{0, 1, 2, 5, 10, 15, 30} {
		n := len(GroupChanges(changes, time.Duration(mins)*time.Minute))
		if n > prev {
			t.Fatalf("delta %d min produced more events (%d) than smaller delta (%d)", mins, n, prev)
		}
		prev = n
	}
}

func TestChangeDetailHelpers(t *testing.T) {
	c := ChangeDetail{Types: []confmodel.Type{confmodel.TypeACL, confmodel.TypeBGP}}
	if !c.HasType(confmodel.TypeACL) || c.HasType(confmodel.TypeVLAN) {
		t.Error("HasType wrong")
	}
	if !c.HasRouterType() {
		t.Error("HasRouterType should be true for BGP")
	}
	c2 := ChangeDetail{Types: []confmodel.Type{confmodel.TypeUser}}
	if c2.HasRouterType() {
		t.Error("HasRouterType wrong for user change")
	}
}

func TestHasTypeExhaustive(t *testing.T) {
	var empty ChangeDetail
	for ty := confmodel.Type(0); int(ty) < confmodel.NumTypes; ty++ {
		if empty.HasType(ty) {
			t.Fatalf("empty change HasType(%v) = true", ty)
		}
	}
	if empty.HasRouterType() {
		t.Error("empty change HasRouterType = true")
	}

	// A change carrying every type answers true for each, and duplicate
	// entries (which diffing can produce for multi-stanza changes) don't
	// confuse the scan.
	all := ChangeDetail{}
	for ty := confmodel.Type(0); int(ty) < confmodel.NumTypes; ty++ {
		all.Types = append(all.Types, ty, ty)
	}
	for ty := confmodel.Type(0); int(ty) < confmodel.NumTypes; ty++ {
		if !all.HasType(ty) {
			t.Errorf("HasType(%v) = false on all-types change", ty)
		}
	}
	if !all.HasRouterType() {
		t.Error("HasRouterType = false on all-types change")
	}
}

func TestHasRouterTypeMatchesIsRouter(t *testing.T) {
	// HasRouterType must agree with confmodel.Type.IsRouter for every
	// single-type change, so the two definitions of "router stanza" can
	// never drift apart.
	for ty := confmodel.Type(0); int(ty) < confmodel.NumTypes; ty++ {
		c := ChangeDetail{Types: []confmodel.Type{ty}}
		if got, want := c.HasRouterType(), ty.IsRouter(); got != want {
			t.Errorf("HasRouterType([%v]) = %v, IsRouter = %v", ty, got, want)
		}
	}
}

func TestMonthsAlignment(t *testing.T) {
	window := testOSP.Params.Months()
	for name, mas := range testAnalysis {
		if len(mas) != len(window) {
			t.Fatalf("%s: %d month analyses for %d months", name, len(mas), len(window))
		}
		for i, ma := range mas {
			if ma.Month != window[i] {
				t.Fatalf("%s: month %d is %v, want %v", name, i, ma.Month, window[i])
			}
			if ma.Network != name {
				t.Fatalf("analysis network %q under key %q", ma.Network, name)
			}
		}
	}
}
