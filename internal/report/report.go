// Package report renders experiment output as aligned ASCII tables,
// CDF summaries, box-plot summaries, and bar charts — the textual
// equivalents of the paper's tables and figures.
package report

import (
	"fmt"
	"strings"

	"mpa/internal/stats"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped and
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float compactly (trailing zeros trimmed, 3 significant
// decimals).
func F(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}

// P formats a p-value in scientific notation like the paper's tables.
func P(v float64) string {
	if v >= 0.01 {
		return fmt.Sprintf("%.3f", v)
	}
	return fmt.Sprintf("%.2e", v)
}

// CDFSummary renders an empirical CDF at the given fractions, e.g.
// "p10=3 p50=9 p90=34".
func CDFSummary(values []float64, percentiles ...float64) string {
	if len(percentiles) == 0 {
		percentiles = []float64{10, 25, 50, 75, 90}
	}
	parts := make([]string, 0, len(percentiles))
	for _, p := range percentiles {
		parts = append(parts, fmt.Sprintf("p%.0f=%s", p, F(stats.Percentile(values, p))))
	}
	return strings.Join(parts, " ")
}

// BoxSummary renders a stats.Box for one labelled group.
func BoxSummary(label string, b stats.BoxSummary) string {
	return fmt.Sprintf("%-24s n=%-5d mean=%-8s med=%-8s q25=%-8s q75=%-8s whiskers=[%s, %s]",
		label, b.N, F(b.Mean), F(b.Median), F(b.Q25), F(b.Q75), F(b.WhiskerLo), F(b.WhiskerHi))
}

// Bar renders a horizontal bar of width proportional to value/max (width
// capped at 40 characters).
func Bar(value, max float64) string {
	const width = 40
	if max <= 0 {
		return ""
	}
	n := int(value / max * width)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// Histogram renders labelled counts with proportional bars.
func Histogram(labels []string, counts []int) string {
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for i, l := range labels {
		c := 0
		if i < len(counts) {
			c = counts[i]
		}
		fmt.Fprintf(&b, "%-24s %5d %s\n", l, c, Bar(float64(c), float64(max)))
	}
	return b.String()
}
