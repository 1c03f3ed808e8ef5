package ingest

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The wire decoder. An update body is one JSON object of a fixed schema
// (Update → SnapshotEntry / TicketEntry) whose bytes are almost all
// escaped configuration text, so it is read into one buffer and parsed
// in a single recursive-descent walk rather than through encoding/json's
// reflective, byte-at-a-time state machine. It accepts exactly what
// encoding/json with DisallowUnknownFields accepts, decoded to the same
// values (FuzzDecode holds it to that), with two tightenings:
//
//   - nothing but whitespace may follow the update object, where
//     json.Decoder.Decode stops after the first value and silently drops
//     the rest (a second month appended to a body, or garbage);
//   - a key may not repeat within one object, case folding included,
//     where encoding/json lets the last value win or merges arrays.
//
// As with encoding/json: keys match a field exactly or else under
// bytes.EqualFold; null leaves a string or time unset, makes an array
// nil and an array element a zero entry; [] is an empty, non-nil slice;
// invalid UTF-8 and unpaired surrogate escapes decode to U+FFFD; and
// times are handed to (*time.Time).UnmarshalJSON as their raw quoted
// bytes.

// Decode reads r to the end and parses the bytes as one Update. A reader
// that reports its remaining length (bytes.Reader, strings.Reader,
// bytes.Buffer) is read into one buffer of exactly that size.
func Decode(r io.Reader) (*Update, error) {
	size := int64(0)
	if l, ok := r.(interface{ Len() int }); ok {
		size = int64(l.Len())
	}
	return DecodeSize(r, size)
}

// DecodeSize is Decode for a body whose length is known up front, such
// as a request's Content-Length: the body is read into one buffer of
// that size, grown only if the reader yields more. size is a hint, not a
// limit; bound the reader (http.MaxBytesReader) to refuse large bodies,
// and bound size too, since the buffer is allocated before any byte is
// read.
func DecodeSize(r io.Reader, size int64) (*Update, error) {
	body, err := readAll(r, size)
	if err != nil {
		return nil, fmt.Errorf("ingest: reading update: %w", err)
	}
	return parseUpdate(body)
}

// readAll reads r to EOF into a buffer of size bytes, plus the one the
// read that meets EOF needs so that it does not grow the buffer (as
// os.ReadFile does).
func readAll(r io.Reader, size int64) ([]byte, error) {
	if size < 0 {
		size = 0
	}
	b := make([]byte, 0, size+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// Field names, in the order the decoder's switches index them.
var (
	updateFields   = []string{"month", "snapshots", "tickets"}
	snapshotFields = []string{"device", "time", "login", "text"}
	ticketFields   = []string{"network", "devices", "origin", "opened", "resolved", "symptom", "notes"}
)

// parseUpdate decodes one Update from body, which must hold nothing else
// but whitespace.
func parseUpdate(body []byte) (*Update, error) {
	d := &decoder{data: body}
	u := &Update{}
	d.space()
	if err := d.update(u); err != nil {
		return nil, err
	}
	d.space()
	if d.off < len(d.data) {
		return nil, d.errorf("data after the update object")
	}
	return u, nil
}

// decoder walks one body; off is the next unread byte.
type decoder struct {
	data []byte
	off  int
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("ingest: decoding update: offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// unexpected reports the byte at off (or the end of the body) where want
// should have been.
func (d *decoder) unexpected(want string) error {
	if d.off >= len(d.data) {
		return d.errorf("unexpected end of body, want %s", want)
	}
	return d.errorf("invalid character %q, want %s", d.data[d.off], want)
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (d *decoder) consume(c byte) bool {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// null advances past a null literal if one is next.
func (d *decoder) null() bool {
	if bytes.HasPrefix(d.data[d.off:], []byte("null")) {
		d.off += len("null")
		return true
	}
	return false
}

func (d *decoder) update(u *Update) error {
	ok, err := d.openObject()
	if !ok {
		return err
	}
	var seen uint32
	for {
		f, err := d.field(updateFields, &seen)
		if f < 0 || err != nil {
			return err
		}
		switch f {
		case 0:
			err = d.str(&u.Month)
		case 1:
			err = array(d, &u.Snapshots, (*decoder).snapshot)
		case 2:
			err = array(d, &u.Tickets, (*decoder).ticket)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) snapshot(s *SnapshotEntry) error {
	ok, err := d.openObject()
	if !ok {
		return err
	}
	var seen uint32
	for {
		f, err := d.field(snapshotFields, &seen)
		if f < 0 || err != nil {
			return err
		}
		switch f {
		case 0:
			err = d.str(&s.Device)
		case 1:
			err = d.time(&s.Time)
		case 2:
			err = d.str(&s.Login)
		case 3:
			err = d.str(&s.Text)
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) ticket(t *TicketEntry) error {
	ok, err := d.openObject()
	if !ok {
		return err
	}
	var seen uint32
	for {
		f, err := d.field(ticketFields, &seen)
		if f < 0 || err != nil {
			return err
		}
		switch f {
		case 0:
			err = d.str(&t.Network)
		case 1:
			err = array(d, &t.Devices, (*decoder).str)
		case 2:
			err = d.str(&t.Origin)
		case 3:
			err = d.time(&t.Opened)
		case 4:
			err = d.time(&t.Resolved)
		case 5:
			err = d.str(&t.Symptom)
		case 6:
			err = d.str(&t.Notes)
		}
		if err != nil {
			return err
		}
	}
}

// openObject advances past the '{' of an object and reports true, or
// past a null and reports false (the target stays zero).
func (d *decoder) openObject() (bool, error) {
	if d.null() {
		return false, nil
	}
	if !d.consume('{') {
		return false, d.unexpected("an object")
	}
	return true, nil
}

// field advances to the next key of the object being walked, past its
// ':', and returns the index in names of the field it matches, or -1
// after the closing '}'. seen holds the fields already set, so it is
// zero exactly until the first key.
func (d *decoder) field(names []string, seen *uint32) (int, error) {
	d.space()
	if d.consume('}') {
		return -1, nil
	}
	if *seen != 0 {
		if !d.consume(',') {
			return -1, d.unexpected("',' or '}'")
		}
		d.space()
	}
	if d.off >= len(d.data) || d.data[d.off] != '"' {
		return -1, d.unexpected("a key")
	}
	at := d.off
	key, plain, err := d.scanString()
	if err != nil {
		return -1, err
	}
	if plain < len(key) {
		s, err := d.unquote(key, plain)
		if err != nil {
			return -1, err
		}
		key = []byte(s)
	}
	f := match(names, key)
	if f < 0 {
		d.off = at
		return -1, d.errorf("unknown field %q", key)
	}
	if *seen&(1<<f) != 0 {
		d.off = at
		return -1, d.errorf("field %q repeated", names[f])
	}
	*seen |= 1 << f
	d.space()
	if !d.consume(':') {
		return -1, d.unexpected("':'")
	}
	d.space()
	return f, nil
}

// match returns the index of the name key matches, exactly or else under
// case folding, as encoding/json matches struct fields; -1 if none.
func match(names []string, key []byte) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}

// array decodes the array (or null) at off into *dst, each element with
// elem.
func array[T any](d *decoder, dst *[]T, elem func(*decoder, *T) error) error {
	if d.null() {
		*dst = nil
		return nil
	}
	if !d.consume('[') {
		return d.unexpected("an array")
	}
	s := []T{}
	d.space()
	if !d.consume(']') {
		for {
			var zero T
			s = append(s, zero)
			if err := elem(d, &s[len(s)-1]); err != nil {
				return err
			}
			d.space()
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return d.unexpected("',' or ']'")
			}
			d.space()
		}
	}
	*dst = s
	return nil
}

// str decodes the string (or null) at off into *dst.
func (d *decoder) str(dst *string) error {
	if d.null() {
		return nil
	}
	if d.off >= len(d.data) || d.data[d.off] != '"' {
		return d.unexpected("a string")
	}
	raw, plain, err := d.scanString()
	if err != nil {
		return err
	}
	if plain == len(raw) {
		*dst = string(raw)
		return nil
	}
	*dst, err = d.unquote(raw, plain)
	return err
}

// time decodes the time (or null) at off into *dst: the string is
// checked as a JSON string, then its quoted bytes go to UnmarshalJSON.
func (d *decoder) time(dst *time.Time) error {
	if d.null() {
		return nil
	}
	if d.off >= len(d.data) || d.data[d.off] != '"' {
		return d.unexpected("a time string")
	}
	at := d.off
	raw, plain, err := d.scanString()
	if err != nil {
		return err
	}
	if plain < len(raw) {
		if _, err := d.unquote(raw, plain); err != nil {
			return err
		}
	}
	if err := dst.UnmarshalJSON(d.data[at:d.off]); err != nil {
		d.off = at
		return d.errorf("%v", err)
	}
	return nil
}

// verbatim marks the bytes a JSON string carries through unquoting
// unchanged: printable ASCII other than '"' and '\\'.
var verbatim = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scanString advances past the string whose opening quote is at off and
// returns its raw contents, plus the length of their verbatim prefix
// (len(raw) when unquoting would return raw itself). The closing quote is
// the first one preceded by an even run of backslashes, found with
// bytes.IndexByte; the contents are checked when they are unquoted.
func (d *decoder) scanString() (raw []byte, plain int, err error) {
	start := d.off + 1
	for from := start; ; {
		q := bytes.IndexByte(d.data[from:], '"')
		if q < 0 {
			return nil, 0, d.errorf("unterminated string")
		}
		q += from
		bs := 0
		for bs < q-start && d.data[q-1-bs] == '\\' {
			bs++
		}
		if bs%2 == 0 {
			raw = d.data[start:q]
			d.off = q + 1
			break
		}
		from = q + 1
	}
	for plain < len(raw) && verbatim[raw[plain]] {
		plain++
	}
	return raw, plain, nil
}

// unquote decodes a string's raw contents, of which raw[:plain] is
// verbatim, exactly as encoding/json does: escapes are decoded, a
// surrogate escape not followed by its pair's other half and each byte
// of invalid UTF-8 become U+FFFD, and a control character or a bad
// escape is an error. The result is built once, in a builder grown to
// len(raw), which bounds it unless invalid UTF-8 must be replaced.
func (d *decoder) unquote(raw []byte, plain int) (string, error) {
	var b strings.Builder
	b.Grow(len(raw))
	from, i := 0, plain // raw[from:i] is verbatim and not yet written
	for i < len(raw) {
		c := raw[i]
		switch {
		case verbatim[c]:
			i++
			continue
		case c == '\\':
			b.Write(raw[from:i])
			if i+1 == len(raw) {
				return "", d.errorf("bad escape at end of string")
			}
			switch e := raw[i+1]; e {
			case '"', '\\', '/':
				b.WriteByte(e)
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case 'u':
				r := hex4(raw[i+2:])
				if r < 0 {
					return "", d.errorf("bad \\u escape in string")
				}
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+8 <= len(raw) && raw[i+2] == '\\' && raw[i+3] == 'u' {
						r2 = hex4(raw[i+4:])
					}
					if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b.WriteRune(r)
			default:
				return "", d.errorf("bad escape %q in string", e)
			}
			i += 2
		case c < ' ':
			return "", d.errorf("control character %#02x in string", c)
		default:
			r, n := utf8.DecodeRune(raw[i:])
			if r != utf8.RuneError || n != 1 {
				i += n
				continue
			}
			b.Write(raw[from:i])
			b.WriteRune(utf8.RuneError)
			i++
		}
		from = i
	}
	b.Write(raw[from:])
	return b.String(), nil
}

// hex4 returns the value of the four hex digits starting s, or -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
