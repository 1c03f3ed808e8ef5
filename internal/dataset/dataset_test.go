package dataset

import (
	"testing"
	"time"

	"mpa/internal/months"
	"mpa/internal/practices"
	"mpa/internal/ticketing"
)

func mkMonth(m time.Month) months.Month { return months.Month{Year: 2014, Mon: m} }

func buildTestDataset() *Dataset {
	log := ticketing.NewLog()
	file := func(net string, m time.Month, n int) {
		for i := 0; i < n; i++ {
			log.File(ticketing.Ticket{
				Network: net,
				Origin:  ticketing.OriginAlarm,
				Opened:  time.Date(2014, m, 3+i%20, 10, 0, 0, 0, time.UTC),
			})
		}
	}
	file("netA", time.January, 0)
	file("netA", time.February, 4)
	file("netB", time.January, 13)
	file("netB", time.February, 7)
	// Maintenance must not count.
	log.File(ticketing.Ticket{Network: "netA", Origin: ticketing.OriginMaintenance,
		Opened: time.Date(2014, time.January, 5, 0, 0, 0, 0, time.UTC)})

	metricsFor := func(dev float64) practices.Metrics {
		m := practices.Metrics{}
		for _, name := range practices.MetricNames {
			m[name] = 1
		}
		m[practices.MetricDevices] = dev
		return m
	}
	analysis := map[string][]practices.MonthAnalysis{
		"netB": {
			{Network: "netB", Month: mkMonth(time.January), Metrics: metricsFor(50)},
			{Network: "netB", Month: mkMonth(time.February), Metrics: metricsFor(50)},
		},
		"netA": {
			{Network: "netA", Month: mkMonth(time.January), Metrics: metricsFor(5)},
			{Network: "netA", Month: mkMonth(time.February), Metrics: metricsFor(5)},
		},
	}
	return Build(analysis, log)
}

func TestBuildOrderAndTickets(t *testing.T) {
	d := buildTestDataset()
	if d.Len() != 4 {
		t.Fatalf("Len = %d", d.Len())
	}
	// Deterministic order: netA before netB, months ascending.
	if d.Cases[0].Network != "netA" || d.Cases[2].Network != "netB" {
		t.Errorf("case order wrong: %v", d.Cases)
	}
	if d.Cases[0].Tickets != 0 || d.Cases[1].Tickets != 4 ||
		d.Cases[2].Tickets != 13 || d.Cases[3].Tickets != 7 {
		t.Errorf("ticket counts: %v %v %v %v",
			d.Cases[0].Tickets, d.Cases[1].Tickets, d.Cases[2].Tickets, d.Cases[3].Tickets)
	}
}

func TestClassBoundaries(t *testing.T) {
	cases := []struct {
		tickets      int
		want2, want5 int
	}{
		{0, 0, 0}, {1, 0, 0}, {2, 1, 0}, {3, 1, 1}, {5, 1, 1},
		{6, 1, 2}, {8, 1, 2}, {9, 1, 3}, {11, 1, 3}, {12, 1, 4}, {100, 1, 4},
	}
	for _, c := range cases {
		if got := Class2(c.tickets); got != c.want2 {
			t.Errorf("Class2(%d) = %d, want %d", c.tickets, got, c.want2)
		}
		if got := Class5(c.tickets); got != c.want5 {
			t.Errorf("Class5(%d) = %d, want %d", c.tickets, got, c.want5)
		}
	}
}

func TestLabels(t *testing.T) {
	d := buildTestDataset()
	l2, l5 := d.Labels(2), d.Labels(5)
	want2 := []int{0, 1, 1, 1}
	want5 := []int{0, 1, 4, 2}
	for i := range want2 {
		if l2[i] != want2[i] {
			t.Errorf("Labels2[%d] = %d, want %d", i, l2[i], want2[i])
		}
		if l5[i] != want5[i] {
			t.Errorf("Labels5[%d] = %d, want %d", i, l5[i], want5[i])
		}
	}
}

func TestValues(t *testing.T) {
	d := buildTestDataset()
	vals := d.Values(practices.MetricDevices)
	want := []float64{5, 5, 50, 50}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("Values[%d] = %v, want %v", i, vals[i], want[i])
		}
	}
}

func TestBinAndFeatureMatrix(t *testing.T) {
	d := buildTestDataset()
	b := d.Bin(5)
	if len(b.Metrics) != len(practices.MetricNames) {
		t.Fatalf("binned %d metrics", len(b.Metrics))
	}
	rows := b.FeatureMatrix()
	if len(rows) != d.Len() {
		t.Fatalf("feature rows = %d", len(rows))
	}
	for _, row := range rows {
		if len(row) != len(practices.MetricNames) {
			t.Fatalf("feature row width = %d", len(row))
		}
		for _, v := range row {
			if v < 0 || v >= 5 {
				t.Fatalf("bin index %d out of range", v)
			}
		}
	}
	// no_devices: 5 vs 50 must land in different bins.
	idx := indexOf(practices.MetricNames, practices.MetricDevices)
	if rows[0][idx] == rows[2][idx] {
		t.Error("small and large networks share a device bin")
	}
	if len(b.Health) != d.Len() {
		t.Errorf("health binned length = %d", len(b.Health))
	}
}

func indexOf(xs []string, want string) int {
	for i, x := range xs {
		if x == want {
			return i
		}
	}
	return -1
}

func TestFilterMonths(t *testing.T) {
	d := buildTestDataset()
	jan := d.FilterMonths(mkMonth(time.January), mkMonth(time.January))
	if jan.Len() != 2 {
		t.Fatalf("january cases = %d", jan.Len())
	}
	for _, c := range jan.Cases {
		if c.Month != mkMonth(time.January) {
			t.Errorf("filtered case in %v", c.Month)
		}
	}
	empty := d.FilterMonths(mkMonth(time.May), mkMonth(time.June))
	if empty.Len() != 0 {
		t.Errorf("out-of-range filter returned %d cases", empty.Len())
	}
}

func TestMonthsAndNetworks(t *testing.T) {
	d := buildTestDataset()
	ms := d.Months()
	if len(ms) != 2 || ms[0] != mkMonth(time.January) || ms[1] != mkMonth(time.February) {
		t.Errorf("Months = %v", ms)
	}
	ns := d.Networks()
	if len(ns) != 2 || ns[0] != "netA" || ns[1] != "netB" {
		t.Errorf("Networks = %v", ns)
	}
}

func TestStringSummary(t *testing.T) {
	d := buildTestDataset()
	if got := d.String(); got != "dataset{cases: 4, networks: 2, months: 2}" {
		t.Errorf("String = %q", got)
	}
}
