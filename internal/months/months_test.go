package months

import (
	"testing"
	"testing/quick"
	"time"
)

func TestOf(t *testing.T) {
	ts := time.Date(2014, time.March, 17, 23, 59, 0, 0, time.UTC)
	if got := Of(ts); got != (Month{2014, time.March}) {
		t.Errorf("Of = %v", got)
	}
}

func TestNextPrevWrap(t *testing.T) {
	dec := Month{2013, time.December}
	if got := dec.Next(); got != (Month{2014, time.January}) {
		t.Errorf("Next(dec) = %v", got)
	}
	jan := Month{2014, time.January}
	if got := jan.Add(-1); got != dec {
		t.Errorf("Add(jan, -1) = %v", got)
	}
}

func TestBefore(t *testing.T) {
	a := Month{2013, time.August}
	b := Month{2013, time.September}
	c := Month{2014, time.January}
	if !a.Before(b) || !b.Before(c) || b.Before(a) || a.Before(a) {
		t.Error("Before ordering wrong")
	}
}

// index is the zero-based offset of m from base (negative if m precedes
// base): the oracle Add is checked against.
func index(m, base Month) int {
	return (m.Year-base.Year)*12 + int(m.Mon) - int(base.Mon)
}

func TestIndexAdd(t *testing.T) {
	base := Month{2013, time.August}
	if got := index(Month{2014, time.December}, base); got != 16 {
		t.Errorf("Index = %d, want 16", got)
	}
	if got := index(base, base); got != 0 {
		t.Errorf("self Index = %d", got)
	}
	if got := base.Add(16); got != (Month{2014, time.December}) {
		t.Errorf("Add(16) = %v", got)
	}
	if got := base.Add(-1); got != (Month{2013, time.July}) {
		t.Errorf("Add(-1) = %v", got)
	}
}

func TestAddIndexInverse(t *testing.T) {
	f := func(nRaw int8) bool {
		base := Month{2013, time.August}
		n := int(nRaw)
		return index(base.Add(n), base) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStartEnd(t *testing.T) {
	m := Month{2014, time.February}
	if got := m.Start(); got != time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC) {
		t.Errorf("Start = %v", got)
	}
	if got := m.End(); got != time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC) {
		t.Errorf("End = %v", got)
	}
}

func TestString(t *testing.T) {
	if got := (Month{2013, time.August}).String(); got != "2013-08" {
		t.Errorf("String = %q", got)
	}
}

func TestRange(t *testing.T) {
	ms := Range(Month{2013, time.November}, Month{2014, time.February})
	if len(ms) != 4 {
		t.Fatalf("Range = %v", ms)
	}
	if ms[0] != (Month{2013, time.November}) || ms[3] != (Month{2014, time.February}) {
		t.Errorf("Range endpoints wrong: %v", ms)
	}
	if got := Range(Month{2014, time.March}, Month{2014, time.January}); got != nil {
		t.Errorf("inverted Range = %v", got)
	}
}

func TestStudyWindow(t *testing.T) {
	ms := Range(StudyStart, StudyEnd)
	if len(ms) != 17 {
		t.Fatalf("study window has %d months, want 17", len(ms))
	}
	if ms[0] != StudyStart || ms[16] != StudyEnd {
		t.Errorf("study endpoints: %v .. %v", ms[0], ms[16])
	}
}
