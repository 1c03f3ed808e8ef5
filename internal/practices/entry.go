package practices

// The disk tier's entry for one network's walk over a window: the
// window's rows and the devices' design facts at its end, so a process
// that reads the entry back answers the window and carries the facts
// into its next month step exactly as the process that walked it.
//
// The entry is a compact binary record, written the same way for the
// same walk:
//
//	entry   = rows ends
//	rows    = count row*
//	row     = str(Network) varint(Year) uvarint(Mon) metrics changes
//	metrics = count (str(name) f64)*        names in ascending order
//	changes = count change*
//	change  = str(Device) time flags types  flags: 1 automated, 2 middlebox
//	types   = count uvarint(Type)*
//	time    = uvarint(n) n bytes of time.Time.MarshalBinary
//	ends    = count end*                    one per device, in inventory order
//	end     = 0x00 | 0x01 facts
//	facts   = str(host) varint(intra) varint(bgpRefs) strs(vlans)
//	          strs(areas) varint(lags) l2bits process(bgp) process(ospf)
//	process = 0x00 | 0x01 str(Host) strs(Peers) strs(Keys)
//	strs    = count str*
//	count   = uvarint: 0 for a nil slice or map, else its length + 1
//	str     = uvarint(0) uvarint(n) n bytes | uvarint(i + 1)
//
// A str is new text, appended to the entry's string table, or a
// reference to the table's i-th string, so a metric name, device name,
// VLAN id or area is stored once per entry. f64 is the float's 8
// IEEE-754 bytes, little-endian, so NaN and ±Inf keep their bits. Times
// keep their instant and zone offset (UTC stays UTC; see
// time.Time.UnmarshalBinary). An entry stores no snapshot: decoding
// binds each device's facts to the device's last snapshot before the
// window's end, which is the snapshot the walk's facts describe, and
// which the entry's key already digests.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"mpa/internal/cache"
	"mpa/internal/confmodel"
	"mpa/internal/months"
	"mpa/internal/nms"
	"mpa/internal/routing"
)

// entryCodec is the disk codec of a network's walk over a window. lasts
// holds each device's last snapshot before the window's end (nil for a
// device with none), and is nil for an empty window; see windowEnds.
func entryCodec(lasts []*nms.Snapshot) cache.Codec[walked] {
	return cache.Codec[walked]{
		Encode: encodeEntry,
		Decode: func(b []byte) (walked, error) { return decodeEntry(b, lasts) },
	}
}

// encodeEntry writes a walk's entry.
func encodeEntry(w walked) ([]byte, error) {
	enc := newEntryWriter()
	enc.rows(w.rows)
	enc.count(len(w.ends), w.ends == nil)
	for _, end := range w.ends {
		if end.facts == nil {
			enc.flag(false)
			continue
		}
		enc.flag(true)
		enc.facts(end.facts)
	}
	return enc.b, enc.err
}

// decodeEntry reads an entry written for a network whose devices' last
// snapshots before the window's end are lasts. Bytes that are not such
// an entry are an error, never a panic; so is an entry whose devices
// hold facts other than exactly those with a snapshot before the end.
func decodeEntry(b []byte, lasts []*nms.Snapshot) (walked, error) {
	dec := entryReader{b: b}
	rows := dec.rows()
	n, isNil := dec.count()
	if dec.err == nil && (isNil != (lasts == nil) || n != len(lasts)) {
		dec.fail("entry holds facts of %d devices, the network has %d", n, len(lasts))
	}
	var ends []deviceEnd
	if dec.err == nil && !isNil {
		ends = make([]deviceEnd, n)
		for i := range ends {
			has := dec.flag()
			if dec.err == nil && has != (lasts[i] != nil) {
				dec.fail("device %d: facts present %v, snapshot before the window's end %v", i, has, lasts[i] != nil)
			}
			if dec.err != nil {
				break
			}
			if has {
				ends[i] = deviceEnd{snap: lasts[i], facts: dec.facts()}
			}
		}
	}
	if dec.err == nil && len(dec.b) > 0 {
		dec.fail("%d trailing bytes", len(dec.b))
	}
	if dec.err != nil {
		return walked{}, fmt.Errorf("practices: disk entry: %w", dec.err)
	}
	return walked{rows: rows, ends: ends}, nil
}

// entryWriter appends an entry's parts to b; err holds the first error.
type entryWriter struct {
	b     []byte
	table map[string]int // the string table: each string's index
	keys  []string       // scratch for sorting a row's metric names
	err   error
}

func newEntryWriter() *entryWriter { return &entryWriter{table: map[string]int{}} }

func (w *entryWriter) uint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *entryWriter) int(v int)     { w.b = binary.AppendVarint(w.b, int64(v)) }

func (w *entryWriter) flag(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// count writes the length of a slice or map, or that it is nil.
func (w *entryWriter) count(n int, isNil bool) {
	if isNil {
		w.uint(0)
	} else {
		w.uint(uint64(n) + 1)
	}
}

func (w *entryWriter) str(s string) {
	if i, ok := w.table[s]; ok {
		w.uint(uint64(i) + 1)
		return
	}
	w.table[s] = len(w.table)
	w.uint(0)
	w.uint(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *entryWriter) strs(ss []string) {
	w.count(len(ss), ss == nil)
	for _, s := range ss {
		w.str(s)
	}
}

func (w *entryWriter) rows(rows []MonthAnalysis) {
	w.count(len(rows), rows == nil)
	for i := range rows {
		ma := &rows[i]
		w.str(ma.Network)
		w.int(ma.Month.Year)
		w.uint(uint64(ma.Month.Mon))
		w.metrics(ma.Metrics)
		w.count(len(ma.Changes), ma.Changes == nil)
		for j := range ma.Changes {
			w.change(&ma.Changes[j])
		}
	}
}

func (w *entryWriter) metrics(m Metrics) {
	w.count(len(m), m == nil)
	w.keys = w.keys[:0]
	for k := range m {
		w.keys = append(w.keys, k)
	}
	slices.Sort(w.keys)
	for _, k := range w.keys {
		w.str(k)
		w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(m[k]))
	}
}

func (w *entryWriter) change(c *ChangeDetail) {
	w.str(c.Device)
	t, err := c.Time.MarshalBinary()
	if err != nil && w.err == nil {
		w.err = fmt.Errorf("practices: disk entry: change of %s: %w", c.Device, err)
	}
	w.uint(uint64(len(t)))
	w.b = append(w.b, t...)
	var flags byte
	if c.Automated {
		flags |= 1
	}
	if c.Middlebox {
		flags |= 2
	}
	w.b = append(w.b, flags)
	w.count(len(c.Types), c.Types == nil)
	for _, ty := range c.Types {
		w.uint(uint64(ty))
	}
}

func (w *entryWriter) facts(f *deviceFacts) {
	w.str(f.host)
	w.int(f.intra)
	w.int(f.bgpRefs)
	w.strs(f.vlans)
	w.strs(f.areas)
	w.int(f.lags)
	var bits byte
	for k, used := range f.l2 {
		if used {
			bits |= 1 << k
		}
	}
	w.b = append(w.b, bits)
	w.process(f.bgp)
	w.process(f.ospf)
}

func (w *entryWriter) process(p *routing.Process) {
	w.flag(p != nil)
	if p != nil {
		w.str(p.Host)
		w.strs(p.Peers)
		w.strs(p.Keys)
	}
}

// entryReader consumes an entry's parts from b. After the first error,
// kept in err, b is empty and every read returns a zero value.
type entryReader struct {
	b     []byte
	table []string
	err   error
}

func (r *entryReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

func (r *entryReader) uint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *entryReader) int() int {
	v, n := binary.Varint(r.b)
	if n <= 0 || v != int64(int(v)) {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

func (r *entryReader) byte() byte {
	if len(r.b) == 0 {
		r.fail("truncated entry")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// raw returns the next n bytes.
func (r *entryReader) raw(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail("%d bytes wanted, %d left", n, len(r.b))
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *entryReader) flag() bool {
	switch c := r.byte(); c {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("flag byte %#x", c)
		return false
	}
}

// count reads a length written by entryWriter.count. Every element takes
// at least one byte, so a length beyond the bytes left is an error, and
// no allocation it sizes outgrows the entry.
func (r *entryReader) count() (n int, isNil bool) {
	v := r.uint()
	if v == 0 {
		return 0, true
	}
	if v-1 > uint64(len(r.b)) {
		r.fail("length %d exceeds the %d bytes left", v-1, len(r.b))
		return 0, true
	}
	return int(v - 1), false
}

func (r *entryReader) str() string {
	ref := r.uint()
	if ref > 0 {
		if ref > uint64(len(r.table)) {
			r.fail("string reference %d beyond a table of %d", ref, len(r.table))
			return ""
		}
		return r.table[ref-1]
	}
	s := string(r.raw(r.uint()))
	if r.err == nil {
		r.table = append(r.table, s)
	}
	return s
}

func (r *entryReader) strs() []string {
	n, isNil := r.count()
	if isNil {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
}

func (r *entryReader) rows() []MonthAnalysis {
	n, isNil := r.count()
	if isNil {
		return nil
	}
	rows := make([]MonthAnalysis, n)
	for i := range rows {
		ma := &rows[i]
		ma.Network = r.str()
		ma.Month = months.Month{Year: r.int(), Mon: time.Month(r.uint())}
		if r.err == nil && (ma.Month.Mon < time.January || ma.Month.Mon > time.December) {
			r.fail("month %d", ma.Month.Mon)
		}
		ma.Metrics = r.metrics()
		nc, isNil := r.count()
		if !isNil {
			ma.Changes = make([]ChangeDetail, nc)
			for j := range ma.Changes {
				r.change(&ma.Changes[j])
			}
		}
		if r.err != nil {
			return nil
		}
	}
	return rows
}

func (r *entryReader) metrics() Metrics {
	n, isNil := r.count()
	if isNil {
		return nil
	}
	m := make(Metrics, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		v := r.raw(8)
		if r.err == nil {
			m[k] = math.Float64frombits(binary.LittleEndian.Uint64(v))
		}
	}
	if r.err == nil && len(m) != n {
		r.fail("repeated metric name")
	}
	return m
}

func (r *entryReader) change(c *ChangeDetail) {
	c.Device = r.str()
	if t := r.raw(r.uint()); r.err == nil {
		if err := c.Time.UnmarshalBinary(t); err != nil {
			r.fail("change time: %v", err)
		}
	}
	flags := r.byte()
	if flags&^3 != 0 {
		r.fail("change flags %#x", flags)
	}
	c.Automated, c.Middlebox = flags&1 != 0, flags&2 != 0
	n, isNil := r.count()
	if !isNil {
		c.Types = make([]confmodel.Type, n)
		for i := range c.Types {
			ty := r.uint()
			if ty >= uint64(confmodel.NumTypes) {
				r.fail("stanza type %d", ty)
			}
			c.Types[i] = confmodel.Type(ty)
		}
	}
}

func (r *entryReader) facts() *deviceFacts {
	f := &deviceFacts{host: r.str(), intra: r.int(), bgpRefs: r.int()}
	f.vlans = r.strs()
	f.areas = r.strs()
	f.lags = r.int()
	bits := r.byte()
	if bits>>numL2 != 0 {
		r.fail("L2 construct bits %#x", bits)
	}
	for k := range f.l2 {
		f.l2[k] = bits&(1<<k) != 0
	}
	f.bgp = r.process()
	f.ospf = r.process()
	return f
}

func (r *entryReader) process() *routing.Process {
	if !r.flag() {
		return nil
	}
	return &routing.Process{Host: r.str(), Peers: r.strs(), Keys: r.strs()}
}
