// Package months provides the calendar-month indexing MPA aggregates over:
// practice metrics and health are computed as monthly values per network
// (paper §5.1.1), and the study window is the 17 months from August 2013
// through December 2014 (Table 2).
package months

import (
	"fmt"
	"time"
)

// Month is a calendar month in UTC.
type Month struct {
	Year int
	Mon  time.Month
}

// StudyStart and StudyEnd delimit the paper's dataset window (inclusive):
// August 2013 through December 2014, 17 months.
var (
	StudyStart = Month{2013, time.August}
	StudyEnd   = Month{2014, time.December}
)

// Of returns the month containing t (in UTC).
func Of(t time.Time) Month {
	u := t.UTC()
	return Month{u.Year(), u.Month()}
}

// Start returns the first instant of the month.
func (m Month) Start() time.Time {
	return time.Date(m.Year, m.Mon, 1, 0, 0, 0, 0, time.UTC)
}

// End returns the first instant of the following month.
func (m Month) End() time.Time { return m.Next().Start() }

// Next returns the following month.
func (m Month) Next() Month {
	if m.Mon == time.December {
		return Month{m.Year + 1, time.January}
	}
	return Month{m.Year, m.Mon + 1}
}

// Before reports whether m precedes o.
func (m Month) Before(o Month) bool {
	if m.Year != o.Year {
		return m.Year < o.Year
	}
	return m.Mon < o.Mon
}

// Add returns the month n months after m (or before, for negative n).
func (m Month) Add(n int) Month {
	total := m.Year*12 + int(m.Mon) - 1 + n
	return Month{total / 12, time.Month(total%12 + 1)}
}

// String formats the month as "2013-08".
func (m Month) String() string { return fmt.Sprintf("%04d-%02d", m.Year, int(m.Mon)) }

// Range returns every month from from to to inclusive. It returns nil when
// to precedes from.
func Range(from, to Month) []Month {
	if to.Before(from) {
		return nil
	}
	var out []Month
	for m := from; !to.Before(m); m = m.Next() {
		out = append(out, m)
	}
	return out
}
