// Package ingest implements the streaming update path: the wire format
// for one month of new snapshots and tickets, its validation and
// compilation against the loaded organization, helpers to slice and
// truncate existing substrates for replay and equivalence testing, the
// SSE fan-out hub, and a watched-directory poller.
//
// An Update is append-only by construction: it carries exactly one
// calendar month of data, and the framework accepts it only for the
// current final month (intra-month growth) or the month after it
// (window extension). Compilation validates every record against the
// inventory and the archive's per-device time monotonicity before
// anything is applied, so a rejected update leaves no partial state.
package ingest

import (
	"fmt"
	"sort"
	"time"

	"mpa/internal/months"
	"mpa/internal/netmodel"
	"mpa/internal/nms"
	"mpa/internal/ticketing"
)

// Update is the wire format of one month of new management-plane data.
type Update struct {
	// Month is the calendar month every record must fall in, "YYYY-MM".
	Month string `json:"month"`
	// Snapshots are new configuration snapshots, per-device time-ordered.
	Snapshots []SnapshotEntry `json:"snapshots"`
	// Tickets are new trouble tickets opened in the month.
	Tickets []TicketEntry `json:"tickets"`
}

// SnapshotEntry is one configuration snapshot on the wire.
type SnapshotEntry struct {
	Device string    `json:"device"`
	Time   time.Time `json:"time"`
	Login  string    `json:"login"`
	Text   string    `json:"text"`
}

// TicketEntry is one trouble ticket on the wire.
type TicketEntry struct {
	Network  string    `json:"network"`
	Devices  []string  `json:"devices,omitempty"`
	Origin   string    `json:"origin"` // alarm | user-report | maintenance
	Opened   time.Time `json:"opened"`
	Resolved time.Time `json:"resolved,omitempty"`
	Symptom  string    `json:"symptom,omitempty"`
	Notes    string    `json:"notes,omitempty"`
}

// ParseMonth parses the update's month field.
func (u *Update) ParseMonth() (months.Month, error) {
	t, err := time.Parse("2006-01", u.Month)
	if err != nil {
		return months.Month{}, fmt.Errorf("ingest: bad month %q, want YYYY-MM", u.Month)
	}
	return months.Of(t), nil
}

// Compiled is a validated update, converted to substrate records and
// ready to splice.
type Compiled struct {
	Month months.Month
	// Snapshots holds the new records in input order, validated against
	// the archive's per-device monotonicity.
	Snapshots []*nms.Snapshot
	// Tickets holds the new tickets in input order (IDs are assigned by
	// the log at filing time).
	Tickets []ticketing.Ticket
	// Networks is the sorted set of networks the update touches — the
	// exact set whose inference and query-cache entries must refresh.
	Networks []string
}

// Compile validates the update against the inventory and archive and
// converts it to substrate records. It checks that every record falls in
// the update's month, every device and network is known, and per-device
// snapshot times are non-decreasing both within the update and relative
// to the archived history. Nothing is mutated; a failed Compile is free.
func (u *Update) Compile(inv *netmodel.Inventory, arch *nms.Archive) (*Compiled, error) {
	m, err := u.ParseMonth()
	if err != nil {
		return nil, err
	}
	if len(u.Snapshots) == 0 && len(u.Tickets) == 0 {
		return nil, fmt.Errorf("ingest: update for %s carries no snapshots or tickets", m)
	}

	deviceNet := make(map[string]string)
	known := make(map[string]bool, len(inv.Networks))
	for _, nw := range inv.Networks {
		known[nw.Name] = true
		for _, dev := range nw.Devices {
			deviceNet[dev.Name] = nw.Name
		}
	}

	c := &Compiled{Month: m}
	touched := map[string]bool{}
	lastTime := map[string]time.Time{} // per device, within the update
	for i, s := range u.Snapshots {
		netName, ok := deviceNet[s.Device]
		if !ok {
			return nil, fmt.Errorf("ingest: snapshot %d: unknown device %q", i, s.Device)
		}
		if months.Of(s.Time) != m {
			return nil, fmt.Errorf("ingest: snapshot %d (%s at %v): outside update month %s",
				i, s.Device, s.Time, m)
		}
		if s.Text == "" {
			return nil, fmt.Errorf("ingest: snapshot %d (%s): empty configuration text", i, s.Device)
		}
		prev, seen := lastTime[s.Device]
		if !seen {
			if hist := arch.Snapshots(s.Device); len(hist) > 0 {
				prev, seen = hist[len(hist)-1].Time, true
			}
		}
		if seen && s.Time.Before(prev) {
			return nil, fmt.Errorf("ingest: snapshot %d (%s at %v): before device's last snapshot %v",
				i, s.Device, s.Time, prev)
		}
		lastTime[s.Device] = s.Time
		c.Snapshots = append(c.Snapshots, &nms.Snapshot{
			Device: s.Device,
			Time:   s.Time,
			Login:  s.Login,
			Text:   s.Text,
		})
		touched[netName] = true
	}

	for i, t := range u.Tickets {
		if !known[t.Network] {
			return nil, fmt.Errorf("ingest: ticket %d: unknown network %q", i, t.Network)
		}
		if months.Of(t.Opened) != m {
			return nil, fmt.Errorf("ingest: ticket %d (%s at %v): outside update month %s",
				i, t.Network, t.Opened, m)
		}
		origin, err := ticketing.ParseOrigin(t.Origin)
		if err != nil {
			return nil, fmt.Errorf("ingest: ticket %d: %w", i, err)
		}
		c.Tickets = append(c.Tickets, ticketing.Ticket{
			Network:  t.Network,
			Devices:  t.Devices,
			Origin:   origin,
			Opened:   t.Opened,
			Resolved: t.Resolved,
			Symptom:  t.Symptom,
			Notes:    t.Notes,
		})
		touched[t.Network] = true
	}

	c.Networks = sortedKeys(touched)
	return c, nil
}

// SliceMonth extracts one month of an existing archive and ticket log as
// a wire-format Update — the replay path: `mpa watch -replay` and the
// splice-equivalence tests generate a full synthetic organization, then
// feed its tail months back through the exact bytes a monitoring feed
// would POST.
func SliceMonth(arch *nms.Archive, log *ticketing.Log, m months.Month) *Update {
	u := &Update{Month: m.String()}
	for _, dev := range arch.Devices() {
		for _, s := range arch.Snapshots(dev) {
			if months.Of(s.Time) == m {
				u.Snapshots = append(u.Snapshots, SnapshotEntry{
					Device: s.Device, Time: s.Time, Login: s.Login, Text: s.Text,
				})
			}
		}
	}
	for _, t := range log.All() {
		if months.Of(t.Opened) == m {
			u.Tickets = append(u.Tickets, TicketEntry{
				Network:  t.Network,
				Devices:  t.Devices,
				Origin:   t.Origin.String(),
				Opened:   t.Opened,
				Resolved: t.Resolved,
				Symptom:  t.Symptom,
				Notes:    t.Notes,
			})
		}
	}
	return u
}

// Truncate copies the archive and log restricted to records at or before
// the end month: the "organization as of month k" view the equivalence
// suite rebuilds from before replaying later months. Snapshot records
// are shared with the original (they are immutable); ticket IDs are
// reassigned sequentially, exactly as if filing had stopped at the
// boundary.
func Truncate(arch *nms.Archive, log *ticketing.Log, end months.Month) (*nms.Archive, *ticketing.Log) {
	cutoff := end.End()
	ta := nms.NewArchive()
	for _, login := range arch.SpecialAccounts() {
		ta.MarkSpecialAccount(login)
	}
	for _, dev := range arch.Devices() {
		for _, s := range arch.Snapshots(dev) {
			if !s.Time.Before(cutoff) {
				break // histories are time-ordered
			}
			if err := ta.Record(s); err != nil {
				panic(fmt.Sprintf("ingest: truncate re-record failed: %v", err))
			}
		}
	}
	tl := ticketing.NewLog()
	for _, t := range log.All() {
		if t.Opened.Before(cutoff) {
			tl.File(*t)
		}
	}
	return ta, tl
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
