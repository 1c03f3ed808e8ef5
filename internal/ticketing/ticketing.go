// Package ticketing models the incident-management substrate MPA reads
// network health from (paper §2.1, data source 3). Tickets are created
// when monitoring alarms fire, when users report problems, or when
// operators conduct planned maintenance; MPA excludes maintenance tickets
// because they are unlikely to be triggered by performance or availability
// problems (§2.2). The paper's health metric is the monthly count of
// non-maintenance tickets per network.
package ticketing

import (
	"fmt"
	"time"

	"mpa/internal/months"
)

// Origin classifies how a ticket was created.
type Origin int

// Ticket origins.
const (
	OriginAlarm Origin = iota // monitoring system raised an alarm
	OriginUserReport
	OriginMaintenance // planned maintenance; excluded from health
)

// String returns the origin name.
func (o Origin) String() string {
	switch o {
	case OriginAlarm:
		return "alarm"
	case OriginUserReport:
		return "user-report"
	case OriginMaintenance:
		return "maintenance"
	default:
		return "unknown"
	}
}

// ParseOrigin returns the origin whose String is s.
func ParseOrigin(s string) (Origin, error) {
	for _, o := range []Origin{OriginAlarm, OriginUserReport, OriginMaintenance} {
		if o.String() == s {
			return o, nil
		}
	}
	return 0, fmt.Errorf("unknown ticket origin %q", s)
}

// Ticket is one trouble ticket. The structured fields mirror the paper's
// description: discovery and resolution times, the devices causing or
// affected by the problem, and a symptom selected from a predefined list.
// Free-text diagnosis notes model the unstructured portion.
type Ticket struct {
	ID       int
	Network  string
	Devices  []string
	Origin   Origin
	Opened   time.Time
	Resolved time.Time // zero while open; may lag the actual fix
	Symptom  string
	Notes    string
}

// Log is an organization's ticket history.
type Log struct {
	tickets []*Ticket
	nextID  int
}

// NewLog returns an empty ticket log.
func NewLog() *Log { return &Log{nextID: 1} }

// File records a new ticket, assigning it the next ID, and returns it.
func (l *Log) File(t Ticket) *Ticket {
	t.ID = l.nextID
	l.nextID++
	stored := t
	l.tickets = append(l.tickets, &stored)
	return &stored
}

// Clone returns an independent log sharing l's ticket records. The
// ticket slice's capacity is clamped to its length, so filing into the
// clone reallocates instead of writing into the original's backing
// array; tickets themselves are never mutated after filing.
func (l *Log) Clone() *Log {
	return &Log{tickets: l.tickets[:len(l.tickets):len(l.tickets)], nextID: l.nextID}
}

// All returns every ticket in filing order.
func (l *Log) All() []*Ticket { return l.tickets }

// Len returns the number of tickets.
func (l *Log) Len() int { return len(l.tickets) }

// NetworkMonth names one network's calendar month.
type NetworkMonth struct {
	Network string
	Month   months.Month
}

// HealthCounts returns the paper's health metric of every network-month
// in one pass over the log: the number of tickets opened in the month,
// excluding planned maintenance. A network-month without such a ticket
// is absent and reads 0.
func (l *Log) HealthCounts() map[NetworkMonth]int {
	out := map[NetworkMonth]int{}
	for _, t := range l.tickets {
		if t.Origin != OriginMaintenance {
			out[NetworkMonth{t.Network, months.Of(t.Opened)}]++
		}
	}
	return out
}
