package ticketing

import (
	"testing"
	"time"

	"mpa/internal/months"
)

func at(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 12, 0, 0, 0, time.UTC)
}

func TestFileAssignsIDs(t *testing.T) {
	l := NewLog()
	a := l.File(Ticket{Network: "n1", Opened: at(2014, 3, 1)})
	b := l.File(Ticket{Network: "n1", Opened: at(2014, 3, 2)})
	if a.ID != 1 || b.ID != 2 {
		t.Errorf("IDs = %d, %d", a.ID, b.ID)
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestHealthCountExcludesMaintenance(t *testing.T) {
	l := NewLog()
	m := months.Month{Year: 2014, Mon: time.March}
	l.File(Ticket{Network: "n1", Origin: OriginAlarm, Opened: at(2014, 3, 1)})
	l.File(Ticket{Network: "n1", Origin: OriginUserReport, Opened: at(2014, 3, 5)})
	l.File(Ticket{Network: "n1", Origin: OriginMaintenance, Opened: at(2014, 3, 9)})
	l.File(Ticket{Network: "n1", Origin: OriginAlarm, Opened: at(2014, 4, 1)}) // other month
	l.File(Ticket{Network: "n2", Origin: OriginAlarm, Opened: at(2014, 3, 2)}) // other net
	counts := l.HealthCounts()
	if got := counts[NetworkMonth{"n1", m}]; got != 2 {
		t.Errorf("HealthCounts[n1 %s] = %d, want 2", m, got)
	}
	// The one pass agrees with a scan of the whole log per network-month.
	for _, n := range []string{"n1", "n2", "n3"} {
		for _, mm := range []months.Month{m, m.Next()} {
			if got, want := counts[NetworkMonth{n, mm}], healthCount(l, n, mm); got != want {
				t.Errorf("HealthCounts[%s %s] = %d, want %d", n, mm, got, want)
			}
		}
	}
}

// healthCount is the per-network-month scan HealthCounts replaces: the
// number of the network's non-maintenance tickets opened in month m.
func healthCount(l *Log, network string, m months.Month) int {
	count := 0
	for _, t := range l.All() {
		if t.Network != network || t.Origin == OriginMaintenance {
			continue
		}
		if months.Of(t.Opened) == m {
			count++
		}
	}
	return count
}

func TestOriginString(t *testing.T) {
	if OriginAlarm.String() != "alarm" || OriginUserReport.String() != "user-report" ||
		OriginMaintenance.String() != "maintenance" || Origin(9).String() != "unknown" {
		t.Error("origin names wrong")
	}
}

func TestFileCopiesTicket(t *testing.T) {
	l := NewLog()
	orig := Ticket{Network: "n1", Opened: at(2014, 1, 1)}
	stored := l.File(orig)
	orig.Network = "mutated"
	if stored.Network != "n1" {
		t.Error("File did not copy the ticket")
	}
}

func TestParseOrigin(t *testing.T) {
	for _, o := range []Origin{OriginAlarm, OriginUserReport, OriginMaintenance} {
		if got, err := ParseOrigin(o.String()); err != nil || got != o {
			t.Errorf("ParseOrigin(%q) = %v, %v", o.String(), got, err)
		}
	}
	for _, s := range []string{"unknown", "Alarm", ""} {
		if _, err := ParseOrigin(s); err == nil {
			t.Errorf("ParseOrigin(%q) accepted", s)
		}
	}
}
