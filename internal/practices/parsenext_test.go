package practices

import (
	"slices"
	"strings"
	"testing"

	"mpa/internal/ciscoios"
	"mpa/internal/confdiff"
	"mpa/internal/confmodel"
	"mpa/internal/junos"
	"mpa/internal/months"
	"mpa/internal/netmodel"
	"mpa/internal/osp"
	"mpa/internal/rng"
)

// parseNextDialect is what the equivalence test needs of a dialect: the
// scratch parser the engine runs plus Render, to check that ParseNext
// leaves its prev config untouched.
type parseNextDialect interface {
	confmodel.ScratchParser
	Render(*confmodel.Config) string
}

// corruptions replace one line of a snapshot: each is rejected by at
// least one dialect, at a line number ParseNext must report exactly as a
// full parse does.
var corruptions = []string{"garbage", " bogus option", "}", "x {", ""}

// TestParseNextEquivalence pins incremental parsing to the full parse on
// every snapshot of the 60-network, 8-month benchmark organization. For
// each device history it checks that ParseNext(prev, text) is Equal to
// ParseScratch(text), that the diff from incremental parses equals the
// diff from full parses, that ParseNext leaves prev rendering byte for
// byte as before, and that a randomly corrupted variant of the snapshot
// fails with the same error message, line number included.
func TestParseNextEquivalence(t *testing.T) {
	p := osp.Small(77)
	p.Start = months.StudyStart
	p.End = months.StudyStart.Add(7)
	o := osp.Generate(p)
	r := rng.New(18)

	var snaps, stanzas, reused, rejected int
	scFull, scInc := confmodel.NewScratch(), confmodel.NewScratch()
	var fullDiff, incDiff []confdiff.StanzaChange
	for _, nw := range o.Inventory.Networks {
		for _, dev := range nw.Devices {
			var d parseNextDialect = junos.Dialect{}
			if dev.Vendor == netmodel.VendorCisco {
				d = ciscoios.Dialect{}
			}
			var prevFull, prevInc *confmodel.Config
			var prevRender string
			for _, snap := range o.Archive.Snapshots(dev.Name) {
				full, err := d.ParseScratch(snap.Text, scFull)
				if err != nil {
					t.Fatalf("%s at %v: %v", dev.Name, snap.Time, err)
				}
				inc, err := d.ParseNext(prevInc, snap.Text, scInc)
				if err != nil {
					t.Fatalf("%s at %v: ParseNext: %v", dev.Name, snap.Time, err)
				}
				if !inc.Equal(full) { // Equal compares hostnames too
					t.Fatalf("%s at %v: ParseNext differs from full parse: %v",
						dev.Name, snap.Time, confdiff.Diff(full, inc))
				}
				snaps++
				stanzas += inc.Len()
				if checkCorruptedSnapshot(t, d, prevInc, snap.Text, r, scFull, scInc) {
					rejected++
				}
				if prevInc != nil {
					// Both ParseNext calls above read prevInc.
					if got := d.Render(prevInc); got != prevRender {
						t.Fatalf("%s at %v: ParseNext modified its prev config", dev.Name, snap.Time)
					}
					for _, s := range inc.Stanzas() {
						if s == prevInc.Get(s.Type, s.Name) {
							reused++
						}
					}
					fullDiff = confdiff.AppendDiff(fullDiff[:0], prevFull, full)
					incDiff = confdiff.AppendDiff(incDiff[:0], prevInc, inc)
					if !slices.Equal(fullDiff, incDiff) {
						t.Fatalf("%s at %v: incremental diff %v, full diff %v",
							dev.Name, snap.Time, incDiff, fullDiff)
					}
				}
				prevFull, prevInc, prevRender = full, inc, d.Render(inc)
			}
		}
	}
	if snaps == 0 || reused == 0 {
		t.Fatalf("%d snapshots parsed, %d stanzas reused: the fixture exercises nothing", snaps, reused)
	}
	t.Logf("%d snapshots, %d stanzas, %d reused (%.1f%%); %d corrupted variants rejected",
		snaps, stanzas, reused, 100*float64(reused)/float64(stanzas), rejected)
}

// checkCorruptedSnapshot replaces one random line of text with a random
// corruption and checks that ParseNext against prev agrees with a full
// parse: the same error string, or Equal configs when the variant still
// parses. It reports whether the variant was rejected.
func checkCorruptedSnapshot(t *testing.T, d parseNextDialect, prev *confmodel.Config, text string, r *rng.RNG, scFull, scInc *confmodel.Scratch) bool {
	t.Helper()
	lines := strings.Split(text, "\n")
	i := r.Intn(len(lines))
	lines[i] = corruptions[r.Intn(len(corruptions))]
	bad := strings.Join(lines, "\n")
	full, fullErr := d.ParseScratch(bad, scFull)
	inc, incErr := d.ParseNext(prev, bad, scInc)
	switch {
	case (fullErr == nil) != (incErr == nil):
		t.Fatalf("line %d corrupted to %q: full parse error %v, ParseNext error %v", i+1, lines[i], fullErr, incErr)
	case fullErr != nil && fullErr.Error() != incErr.Error():
		t.Fatalf("line %d corrupted to %q: full parse error %q, ParseNext error %q", i+1, lines[i], fullErr, incErr)
	case fullErr == nil && !inc.Equal(full):
		t.Fatalf("line %d corrupted to %q: ParseNext differs from full parse: %v", i+1, lines[i], confdiff.Diff(full, inc))
	}
	return fullErr != nil
}
