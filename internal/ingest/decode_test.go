package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"mpa/internal/osp"
)

// oracleDecode is the contract Decode keeps: encoding/json with unknown
// fields disallowed, reading the body's first value.
func oracleDecode(body []byte) (*Update, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	u := &Update{}
	if err := dec.Decode(u); err != nil {
		return nil, err
	}
	return u, nil
}

// tightened reports whether body breaks one of Decode's two deliberate
// tightenings of encoding/json, as a json.Decoder.Token walk sees it:
// something other than whitespace after the first value, or a key
// repeated (under case folding) within one object. A body the walk
// cannot tokenize is a syntax error, which the oracle reports itself.
func tightened(body []byte) bool {
	type frame struct {
		object, wantKey bool
		keys            []string
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		top := len(stack) - 1
		switch {
		case top >= 0 && stack[top].wantKey && tok != json.Delim('}'):
			k := tok.(string)
			for _, seen := range stack[top].keys {
				if strings.EqualFold(seen, k) {
					return true
				}
			}
			stack[top].keys = append(stack[top].keys, k)
			stack[top].wantKey = false
			continue
		case tok == json.Delim('{'):
			stack = append(stack, &frame{object: true, wantKey: true})
			continue
		case tok == json.Delim('['):
			stack = append(stack, &frame{})
			continue
		case tok == json.Delim('}') || tok == json.Delim(']'):
			stack = stack[:top]
		}
		// A value is complete.
		if n := len(stack); n > 0 {
			stack[n-1].wantKey = stack[n-1].object
			continue
		}
		_, err = dec.Token()
		return err != io.EOF
	}
}

// checkDecode holds Decode to the oracle on one body.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	got, err := Decode(bytes.NewReader(body))
	want, werr := oracleDecode(body)
	switch {
	case werr != nil:
		if err == nil {
			t.Fatalf("accepted %q, which encoding/json rejects (%v)", body, werr)
		}
	case tightened(body):
		if err == nil {
			t.Fatalf("accepted trailing data or a repeated key in %q", body)
		}
	case err != nil:
		t.Fatalf("rejected %q, which encoding/json accepts: %v", body, err)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("decoded %q as\n%#v\nencoding/json decodes\n%#v", body, got, want)
	}
}

// FuzzDecode is the differential check of the wire decoder against
// encoding/json: equal values where the oracle accepts, a rejection where
// it rejects or where a tightening applies.
func FuzzDecode(f *testing.F) {
	// One snapshot and one ticket of a SliceMonth body, the config text
	// cut to its first lines: the fuzzer minimizes every new input it
	// finds, which takes seconds per kilobyte.
	o := osp.Generate(fuzzParams())
	u := SliceMonth(o.Archive, o.Tickets, o.Params.End)
	u.Snapshots, u.Tickets = u.Snapshots[:1], u.Tickets[:1]
	u.Snapshots[0].Text = u.Snapshots[0].Text[:strings.Index(u.Snapshots[0].Text[200:], "\n")+201]
	body, err := json.Marshal(u)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	for _, s := range []string{
		``, ` `, `<`, `null`, `{}`, ` {} `, `[]`, `"x"`, `{"month":5}`, `{"snapshots":[true]}`,
		`{"month":"2014-07","snapshots":[],"tickets":null}`,
		`{"snapshots":[null,{"device":"d","time":null}],"tickets":[{"devices":[null,"a"],"opened":null}]}`,
		`{"snapshots":null,"tickets":[]}`,
		// Escapes, surrogate pairs and lone surrogates.
		`{"month":"a\"b\\c\/d\b\f\n\r\té\u0000"}`,
		`{"month":"😀 😀"}`,
		`{"month":"\ud800"}`, `{"month":"\udc00\ud800x"}`, `{"month":"\ud800A"}`,
		`{"month":"\ud800𐀀"}`, `{"month":"\ud800\uZZZZ"}`, `{"month":"\'"}`, `{"month":"\u12"}`,
		// Invalid UTF-8 and control characters.
		"{\"month\":\"\xff\xfe\xed\xa0\x80 ok \xe2\x84\"}", "{\"month\":\"a\x01\"}", "{\"month\":\"\t\"}",
		// Keys matched under case folding: the Kelvin sign folds to k,
		// the long s to s.
		`{"ticKets":[]}`, "{\"tic\xe2\x84\xaaets\":[]}", `{"MONTH":"x","Snapshots":[]}`,
		"{\"\xc5\xbfnapshots\":[]}", `{"month":"x"}`, `{"snapshotz":[]}`,
		// Times, plain and escaped.
		`{"snapshots":[{"time":"2014-07-01T10:00:00Z"},{"time":"2014-07-01T10:00:00.5+02:00"}]}`,
		`{"snapshots":[{"time":"2014-07-01T10:00:00Z"}]}`, `{"snapshots":[{"time":"2014-07-01T10:00:00Z\n"}]}`,
		`{"tickets":[{"opened":"2014-07-01T10:00:00Z","resolved":5}]}`, `{"snapshots":[{"time":{}}]}`,
		// The tightenings.
		`{"month":"2014-07"}{"month":"2014-08"}`, `{"month":"2014-07"} garbage`, `null x`,
		`{"month":"a","MONTH":"b"}`, `{"snapshots":[{"device":"a"}],"snapshots":[{"login":"b"}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecode)
}

// fuzzParams is a small organization for FuzzDecode's seed body.
func fuzzParams() osp.Params {
	p := osp.Small(3)
	p.Networks = 2
	p.End = p.Start
	return p
}

var (
	smallOnce sync.Once
	smallOrg  *osp.OSP
)

// smallConfigOrg is the 60-network, six-month organization
// mpa.SmallConfig(11) describes, generated once for the tests below.
func smallConfigOrg() *osp.OSP {
	smallOnce.Do(func() { smallOrg = osp.Generate(osp.Small(11)) })
	return smallOrg
}

// TestDecodeRoundTrip decodes every month of a SmallConfig organization,
// as SliceMonth and json.Marshal put it on the wire, to exactly what
// encoding/json decodes.
func TestDecodeRoundTrip(t *testing.T) {
	o := smallConfigOrg()
	for _, m := range o.Params.Months() {
		body, err := json.Marshal(SliceMonth(o.Archive, o.Tickets, m))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		want, err := oracleDecode(body)
		if err != nil {
			t.Fatalf("%s: encoding/json: %v", m, err)
		}
		if len(got.Snapshots) == 0 || len(got.Tickets) == 0 {
			t.Fatalf("%s: %d snapshots and %d tickets, want some of each", m, len(got.Snapshots), len(got.Tickets))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded update differs from encoding/json's", m)
		}
	}
}

// TestDecodeSizeReadErrors pins that a read error reaches the caller
// wrapped, so the serve handler can tell an oversized body (413) from a
// malformed one (400), and that a wrong size hint only costs growth.
func TestDecodeSizeReadErrors(t *testing.T) {
	boom := errors.New("boom")
	r := io.MultiReader(strings.NewReader(`{"month":`), iotest.ErrReader(boom))
	if _, err := DecodeSize(r, 4); !errors.Is(err, boom) {
		t.Fatalf("error %v, want it to wrap the read error", err)
	}
	body := `{"month":"2014-07","tickets":[]}`
	for _, size := range []int64{-1, 0, 3, int64(len(body)), 1 << 10} {
		u, err := DecodeSize(io.MultiReader(strings.NewReader(body)), size)
		if err != nil || u.Month != "2014-07" {
			t.Fatalf("size %d: %+v, %v", size, u, err)
		}
	}
}

// TestAllocBudgetDecode pins the decoder's allocation cost on a
// generated 60-network month body: bytes allocated per body byte (the
// body buffer plus each decoded string, once) and allocations per record.
// encoding/json read 4.14 B per body byte and 4.48 allocs/record on this
// body; this decoder reads 2.14 and 3.66. CI runs
// `go test -run AllocBudget ./...`; exceeding a budget fails the build.
func TestAllocBudgetDecode(t *testing.T) {
	o := smallConfigOrg()
	body, err := json.Marshal(SliceMonth(o.Archive, o.Tickets, o.Params.End))
	if err != nil {
		t.Fatal(err)
	}
	u, err := Decode(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	records := len(u.Snapshots) + len(u.Tickets)
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Decode(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(body))
	perRecord := testing.AllocsPerRun(runs, func() {
		if _, err := Decode(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	}) / float64(records)
	t.Logf("decode: %d-byte body, %d records: %.2f B allocated per body byte, %.2f allocs/record",
		len(body), records, perByte, perRecord)
	const byteBudget, recordBudget = 2.3, 4.0
	if perByte > byteBudget {
		t.Errorf("decode allocated %.2f B per body byte, budget %.1f", perByte, byteBudget)
	}
	if perRecord > recordBudget {
		t.Errorf("decode made %.2f allocs/record, budget %.1f", perRecord, recordBudget)
	}
}
