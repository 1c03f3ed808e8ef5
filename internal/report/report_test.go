package report

import (
	"strings"
	"testing"

	"mpa/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Name", "Value")
	tb.AddRow("short", "1")
	tb.AddRow("a-much-longer-name", "12345")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	// All rows equal width.
	for _, l := range lines[1:] {
		if len(l) != len(lines[len(lines)-1]) {
			t.Errorf("misaligned line %q", l)
		}
	}
	if !strings.Contains(out, "Name") || !strings.Contains(out, "12345") {
		t.Errorf("missing content:\n%s", out)
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("A", "B", "C")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "z", "dropped")
	out := tb.String()
	if strings.Contains(out, "dropped") {
		t.Error("extra cell not dropped")
	}
}

func TestF(t *testing.T) {
	cases := map[float64]string{
		1.5: "1.5", 2: "2", 0.125: "0.125", 0.1001: "0.1", 10.0: "10",
	}
	for v, want := range cases {
		if got := F(v); got != want {
			t.Errorf("F(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestP(t *testing.T) {
	if got := P(0.05); got != "0.050" {
		t.Errorf("P(0.05) = %q", got)
	}
	if got := P(6.8e-13); got != "6.80e-13" {
		t.Errorf("P(small) = %q", got)
	}
}

func TestCDFSummary(t *testing.T) {
	vals := make([]float64, 101)
	for i := range vals {
		vals[i] = float64(i)
	}
	out := CDFSummary(vals, 10, 50, 90)
	if !strings.Contains(out, "p10=10") || !strings.Contains(out, "p50=50") || !strings.Contains(out, "p90=90") {
		t.Errorf("CDFSummary = %q", out)
	}
	if def := CDFSummary(vals); !strings.Contains(def, "p25=") {
		t.Errorf("default percentiles missing: %q", def)
	}
}

func TestBoxSummary(t *testing.T) {
	b := stats.Box([]float64{1, 2, 3, 4, 5})
	out := BoxSummary("label", b)
	if !strings.Contains(out, "label") || !strings.Contains(out, "med=3") {
		t.Errorf("BoxSummary = %q", out)
	}
}

func TestBar(t *testing.T) {
	if Bar(0, 10) != "" {
		t.Error("zero bar not empty")
	}
	if got := Bar(10, 10); len(got) != 40 {
		t.Errorf("full bar length = %d", len(got))
	}
	if got := Bar(20, 10); len(got) != 40 {
		t.Errorf("over-full bar length = %d", len(got))
	}
	if Bar(5, 0) != "" {
		t.Error("zero-max bar not empty")
	}
	if got := Bar(-3, 10); got != "" {
		t.Errorf("negative bar = %q", got)
	}
}

func TestHistogram(t *testing.T) {
	out := Histogram([]string{"a", "b"}, []int{1, 4})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("histogram lines = %d", len(lines))
	}
	if !strings.Contains(lines[1], "####") {
		t.Errorf("largest bucket bar missing: %q", lines[1])
	}
	if strings.Count(lines[0], "#") >= strings.Count(lines[1], "#") {
		t.Error("bars not proportional")
	}
}
