package ingest

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mpa/internal/months"
	"mpa/internal/obs"
	"mpa/internal/osp"
	"mpa/internal/ticketing"
)

// testOrg generates a small organization shared by the validation tests.
func testOrg(t *testing.T) *osp.OSP {
	t.Helper()
	p := osp.Small(3)
	p.Networks = 4
	p.End = p.Start.Add(1)
	return osp.Generate(p)
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	good := `{"month":"2014-07","snapshots":[],"tickets":[]}`
	if _, err := Decode(strings.NewReader(good)); err != nil {
		t.Fatalf("valid update rejected: %v", err)
	}
	bad := `{"month":"2014-07","snapshotz":[]}`
	if _, err := Decode(strings.NewReader(bad)); err == nil {
		t.Fatal("typo'd field accepted")
	}
	if _, err := Decode(strings.NewReader("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}

func TestCompileValidation(t *testing.T) {
	o := testOrg(t)
	m := o.Params.End.Next()
	dev := o.Inventory.Networks[0].Devices[0].Name
	nw := o.Inventory.Networks[0].Name
	in := func(d int) time.Time { return m.Start().Add(time.Duration(d) * 24 * time.Hour) }
	snap := func(device string, at time.Time) SnapshotEntry {
		return SnapshotEntry{Device: device, Time: at, Login: "alice", Text: "hostname x\n"}
	}

	cases := []struct {
		name string
		u    Update
		want string // substring of the expected error; "" means accept
	}{
		{"accepts valid", Update{Month: m.String(), Snapshots: []SnapshotEntry{snap(dev, in(1))},
			Tickets: []TicketEntry{{Network: nw, Origin: "alarm", Opened: in(2)}}}, ""},
		{"bad month string", Update{Month: "July 2014", Snapshots: []SnapshotEntry{snap(dev, in(1))}}, "bad month"},
		{"empty update", Update{Month: m.String()}, "no snapshots or tickets"},
		{"unknown device", Update{Month: m.String(), Snapshots: []SnapshotEntry{snap("no-such-device", in(1))}}, "unknown device"},
		{"snapshot outside month", Update{Month: m.String(),
			Snapshots: []SnapshotEntry{snap(dev, m.End().Add(time.Hour))}}, "outside update month"},
		{"empty text", Update{Month: m.String(),
			Snapshots: []SnapshotEntry{{Device: dev, Time: in(1), Login: "alice"}}}, "empty configuration text"},
		{"time regression within update", Update{Month: m.String(),
			Snapshots: []SnapshotEntry{snap(dev, in(2)), snap(dev, in(1))}}, "before device's last snapshot"},
		{"unknown network", Update{Month: m.String(),
			Tickets: []TicketEntry{{Network: "no-such-network", Origin: "alarm", Opened: in(1)}}}, "unknown network"},
		{"ticket outside month", Update{Month: m.String(),
			Tickets: []TicketEntry{{Network: nw, Origin: "alarm", Opened: m.End().Add(time.Hour)}}}, "outside update month"},
		{"bad origin", Update{Month: m.String(),
			Tickets: []TicketEntry{{Network: nw, Origin: "gremlins", Opened: in(1)}}}, "origin"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.u.Compile(o.Inventory, o.Archive)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if got := c.Networks; len(got) != 1 || got[0] != nw {
					t.Fatalf("touched networks %v, want [%s]", got, nw)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestCompileRejectsRegressionAgainstArchive pins that per-device
// monotonicity is checked against the archived history, not just within
// the update.
func TestCompileRejectsRegressionAgainstArchive(t *testing.T) {
	o := testOrg(t)
	dev := o.Inventory.Networks[0].Devices[0].Name
	hist := o.Archive.Snapshots(dev)
	last := hist[len(hist)-1].Time
	m := months.Of(last)
	u := Update{Month: m.String(), Snapshots: []SnapshotEntry{
		{Device: dev, Time: last.Add(-time.Minute), Login: "alice", Text: "hostname x\n"},
	}}
	if _, err := u.Compile(o.Inventory, o.Archive); err == nil {
		t.Fatal("snapshot older than archived history accepted")
	}
}

// TestTruncateSliceRoundTrip pins the replay identity the equivalence
// suite depends on: truncating at month j and re-applying SliceMonth for
// j+1..k reassembles exactly the original archive and ticket log.
func TestTruncateSliceRoundTrip(t *testing.T) {
	p := osp.Small(4)
	p.Networks = 5
	p.End = p.Start.Add(3)
	o := osp.Generate(p)
	cut := p.Start.Add(1)

	arch, log := Truncate(o.Archive, o.Tickets, cut)
	// The truncated view must contain no records after the cut.
	for _, dev := range arch.Devices() {
		for _, s := range arch.Snapshots(dev) {
			if !s.Time.Before(cut.End()) {
				t.Fatalf("truncated archive holds %s at %v, after %s", dev, s.Time, cut)
			}
		}
	}
	for _, tk := range log.All() {
		if !tk.Opened.Before(cut.End()) {
			t.Fatalf("truncated log holds ticket opened %v, after %s", tk.Opened, cut)
		}
	}
	if len(arch.SpecialAccounts()) != len(o.Archive.SpecialAccounts()) {
		t.Fatal("truncate dropped special accounts")
	}

	// Replay the tail months through the wire format.
	for m := cut.Next(); !p.End.Before(m); m = m.Next() {
		u := SliceMonth(o.Archive, o.Tickets, m)
		b, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		u2, err := Decode(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		c, err := u2.Compile(o.Inventory, arch)
		if err != nil {
			t.Fatalf("compile month %s: %v", m, err)
		}
		for _, s := range c.Snapshots {
			if err := arch.Record(s); err != nil {
				t.Fatalf("record month %s: %v", m, err)
			}
		}
		for i := range c.Tickets {
			log.File(c.Tickets[i])
		}
	}

	// Identical per-device histories, snapshot for snapshot.
	origDevs := o.Archive.Devices()
	if got := arch.Devices(); !reflect.DeepEqual(got, origDevs) {
		t.Fatalf("device sets differ: %v vs %v", got, origDevs)
	}
	for _, dev := range origDevs {
		orig, got := o.Archive.Snapshots(dev), arch.Snapshots(dev)
		if len(orig) != len(got) {
			t.Fatalf("%s: %d snapshots, want %d", dev, len(got), len(orig))
		}
		for i := range orig {
			if !reflect.DeepEqual(got[i], orig[i]) {
				t.Fatalf("%s snapshot %d differs:\n got %+v\nwant %+v", dev, i, *got[i], *orig[i])
			}
		}
	}
	// Ticket multisets match per month (replay appends later months at
	// the end, so IDs and global order legitimately differ).
	if lo, lr := len(o.Tickets.All()), len(log.All()); lo != lr {
		t.Fatalf("%d tickets after replay, want %d", lr, lo)
	}
	got, want := log.HealthCounts(), o.Tickets.HealthCounts()
	for m := p.Start; !p.End.Before(m); m = m.Next() {
		for _, nw := range o.Inventory.Networks {
			k := ticketing.NetworkMonth{Network: nw.Name, Month: m}
			if got, want := got[k], want[k]; got != want {
				t.Fatalf("%s %s: health count %d, want %d", nw.Name, m, got, want)
			}
		}
	}
}

func TestHubOrderingAndCancel(t *testing.T) {
	h := NewHub()
	ch1, cancel1 := h.Subscribe()
	ch2, cancel2 := h.Subscribe()
	defer cancel2()
	if h.Subscribers() != 2 {
		t.Fatalf("subscribers=%d, want 2", h.Subscribers())
	}

	first := []Event{{Type: "delta", Data: []byte(`1`)}, {Type: "delta", Data: []byte(`2`)}, {Type: "rank", Data: []byte(`3`)}}
	second := []Event{{Type: "rank", Data: []byte(`4`)}}
	h.Publish(first...)
	h.Publish(second...)
	for _, ch := range []<-chan []Event{ch1, ch2} {
		for u, want := range [][]Event{first, second} {
			got := <-ch
			if len(got) != len(want) {
				t.Fatalf("update %d: %d events, want %d", u, len(got), len(want))
			}
			for i := range want {
				if got[i].Type != want[i].Type || string(got[i].Data) != string(want[i].Data) {
					t.Fatalf("update %d event %d: got %s %s, want %s %s", u, i, got[i].Type, got[i].Data, want[i].Type, want[i].Data)
				}
			}
		}
	}

	cancel1()
	cancel1() // idempotent
	if h.Subscribers() != 1 {
		t.Fatalf("subscribers=%d after cancel, want 1", h.Subscribers())
	}
	if _, ok := <-ch1; ok {
		t.Fatal("canceled channel not closed")
	}
	h.Publish(Event{Type: "delta", Data: []byte(`5`)}) // must not panic or reach ch1
	if got := <-ch2; len(got) != 1 || string(got[0].Data) != "5" {
		t.Fatalf("live subscriber got %v, want one event 5", got)
	}
}

// TestHubDropsSlowSubscriber checks that delivery is all or nothing per
// update: a 200-event burst (an ingest touching 199 networks) reaches a
// reading subscriber intact, and a subscriber whose buffer is full loses
// the whole next update, counted once, while the updates it holds stay
// whole.
func TestHubDropsSlowSubscriber(t *testing.T) {
	burst := func(tag string) []Event {
		evs := make([]Event, 200)
		for i := range evs {
			evs[i] = Event{Type: "delta", Data: []byte(tag + strconv.Itoa(i))}
		}
		evs[len(evs)-1].Type = "rank"
		return evs
	}
	h := NewHub()
	reader, cancelReader := h.Subscribe()
	defer cancelReader()
	h.Publish(burst("r")...)
	if got := <-reader; len(got) != 200 || got[199].Type != "rank" || string(got[0].Data) != "r0" {
		t.Fatalf("reading subscriber got %d events, want the whole 200-event burst ending in rank", len(got))
	}

	slow, cancelSlow := h.Subscribe()
	defer cancelSlow()
	dropped := obs.GetCounter("ingest.stream_dropped")
	for i := 0; i < subscriberBuffer; i++ {
		h.Publish(burst(strconv.Itoa(i) + ":")...)
	}
	before := dropped.Value()
	h.Publish(burst("lost:")...)
	if got := dropped.Value() - before; got != 2 {
		// The reader, not drained since, is full too.
		t.Errorf("ingest.stream_dropped rose by %d, want 2 (one whole update per full subscriber)", got)
	}
	for i := 0; i < subscriberBuffer; i++ {
		got := <-slow
		if len(got) != 200 || string(got[0].Data) != strconv.Itoa(i)+":0" {
			t.Fatalf("buffered update %d: %d events starting %s, want 200 starting %d:0", i, len(got), got[0].Data, i)
		}
	}
	select {
	case got := <-slow:
		t.Fatalf("overflow update (%d events) delivered, want dropped whole", len(got))
	default:
	}
}

func TestWatcherScan(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Deliberately created out of lexicographic order; Scan must sort.
	write("2014-08.json", `{"month":"2014-08","snapshots":[],"tickets":[]}`)
	write("2014-07.json", `{"month":"2014-07","snapshots":[],"tickets":[]}`)
	write("notes.txt", `ignored`)
	write("broken.json", `{nope`)

	var got []string
	w := NewWatcher(dir, 0, func(path string, u *Update) error {
		got = append(got, u.Month)
		return nil
	})
	applied, err := w.Scan()
	if err == nil {
		t.Fatal("Scan swallowed the malformed file's error")
	}
	if applied != 2 {
		t.Fatalf("applied=%d, want 2", applied)
	}
	if want := []string{"2014-07", "2014-08"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("apply order %v, want %v", got, want)
	}

	// A second pass applies nothing: clean and broken files alike are
	// seen exactly once.
	applied, err = w.Scan()
	if err != nil || applied != 0 {
		t.Fatalf("second scan: applied=%d err=%v, want 0 nil", applied, err)
	}

	// New files are picked up.
	write("2014-09.json", `{"month":"2014-09","snapshots":[],"tickets":[]}`)
	if applied, err = w.Scan(); err != nil || applied != 1 {
		t.Fatalf("third scan: applied=%d err=%v, want 1 nil", applied, err)
	}
}
