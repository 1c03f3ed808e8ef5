package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"mpa"
	"mpa/internal/cache"
	"mpa/internal/obs"
)

// A /v1 answer changes only when an ingest replaces the snapshot it was
// computed from, and dashboards read it many times in between. So the
// rank, causal, predict, network and report endpoints store each 200
// body, encoded exactly as writeJSON writes it, as one more entry in the
// snapshot's memo (mpa.Memoized): per-network answers in the network's
// memo, whole-organization answers in the organization's. The body is
// built once, under the memo's single flight, from the same snapshot as
// the answer it encodes; a warm read is a memo lookup and one Write of
// the stored bytes. Each stored body carries a strong ETag, the hash of
// its bytes, so a client that sends If-None-Match with a current tag
// gets a 304 and no body. Errors are never stored: they answer through
// writeError on every request.
//
// With a cache directory, a whole-organization body whose answer reads
// nothing of the snapshot but Params and Data (rank, causal, predict,
// and the reports mpa.ReportReadsOnlyData names) also goes to the
// answers disk tier (mpa.OnDisk), so a daemon restarted over the same
// data answers it with a file read. Per-network bodies, and reports
// that read the substrates or the per-network analysis, stay in memory.

// stored is one 200 body as it goes out on the wire, with its ETag and
// Content-Length header values prebuilt so a warm read allocates none.
// The header slices are shared by every response that writes them and
// must not be modified.
type stored struct {
	body   []byte
	etag   []string // {the body's ETag}
	length []string // {len(body)}
}

// newStored encodes v as writeJSON would and tags the bytes.
func newStored(v any) (*stored, error) {
	b, err := encodeJSON(v)
	if err != nil {
		obs.Logger().Error("serve: encode response", "err", err)
		return nil, &httpError{code: http.StatusInternalServerError, msg: "encode response: " + err.Error()}
	}
	return tagged(b, sha256.Sum256(b)), nil
}

// tagged returns body as stored, given the SHA-256 of its bytes. Its
// ETag is a strong one: the first 128 bits of the sum, in hex and
// quoted.
func tagged(body []byte, sum [sha256.Size]byte) *stored {
	return &stored{
		body:   body,
		etag:   []string{`"` + hex.EncodeToString(sum[:16]) + `"`},
		length: []string{strconv.Itoa(len(body))},
	}
}

// storedCodec writes a stored body to the answers disk tier as the
// SHA-256 of the body followed by the body. Reading an entry back
// hashes the body again, and derives the ETag from that hash; a body
// that does not match the hash stored with it is a corrupt entry.
var storedCodec = cache.Codec[*stored]{
	Encode: func(a *stored) ([]byte, error) {
		sum := sha256.Sum256(a.body)
		return append(sum[:], a.body...), nil
	},
	Decode: func(b []byte) (*stored, error) {
		if len(b) < sha256.Size {
			return nil, errors.New("serve: stored entry shorter than its hash")
		}
		body := b[sha256.Size:]
		sum := sha256.Sum256(body)
		if !bytes.Equal(sum[:], b[:sha256.Size]) {
			return nil, errors.New("serve: stored body does not match its hash")
		}
		return tagged(body, sum), nil
	},
}

// loaded is what a persisted answer does with a body read back from the
// answers disk tier, beyond serving it, given the framework pinned to
// the snapshot it answers for. A nil loaded keeps the answer in memory
// only.
type loaded func(q *mpa.Framework, body []byte)

// persist marks an answer kept on disk too that needs nothing more when
// it is read back.
func persist(*mpa.Framework, []byte) {}

// reportLoaded is handleReport's loaded for experiment id: nil for a
// report that reads more than Params and Data, which stays in memory;
// otherwise recordReport.
func reportLoaded(id string) loaded {
	if !mpa.ReportReadsOnlyData(id) {
		return nil
	}
	return recordReport
}

// recordReport records the digest a report body read from disk carries
// in the snapshot's manifest, as running the report would have.
func recordReport(q *mpa.Framework, body []byte) {
	var r struct {
		ID     string `json:"id"`
		Digest string `json:"digest"`
	}
	if json.Unmarshal(body, &r) == nil {
		q.RecordReportDigest(r.ID, r.Digest)
	}
}

// httpError is a failed answer: the status and message writeError
// answers it with.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// respond answers r with the body stored under key in the current
// snapshot of f (network's memo for a per-network answer, the
// organization's for ""), building it on a miss: build computes the
// response value from a framework pinned to that snapshot, and the value
// is encoded and tagged once. A non-nil check runs first on the pinned
// framework; its error answers the request before the disk tier or build
// is touched. With a non-nil onLoad the memo miss reads
// the answers disk tier first and writes a built body there (a
// whole-organization answer only, see above); a body read from disk is
// handed to onLoad and counted as "disk_hits" on the stage span. The
// lookup, and on a miss the build, runs under the stage span; the write
// under "encode". A build error answers through writeError and is not
// stored: an *httpError with its status, anything else (a waiter on a
// build that panicked) a 500.
func respond(w http.ResponseWriter, r *http.Request, f *mpa.Framework, stage, network, key string, check func(*mpa.Framework) error, onLoad loaded, build func(*mpa.Framework) (any, error)) {
	sp := obs.SpanFrom(r.Context())
	c := sp.Start(stage)
	a, err := mpa.Memoized(f, network, key, func(q *mpa.Framework) (*stored, error) {
		if check != nil {
			if err := check(q); err != nil {
				return nil, err
			}
		}
		compute := func() (*stored, error) {
			v, err := build(q)
			if err != nil {
				return nil, err
			}
			return newStored(v)
		}
		if onLoad == nil {
			return compute()
		}
		a, fromDisk, err := mpa.OnDisk(q, key, storedCodec, compute)
		if fromDisk {
			onLoad(q, a.body)
			c.Count("disk_hits", 1)
		}
		return a, err
	})
	c.End()
	if err != nil {
		var he *httpError
		if errors.As(err, &he) {
			writeError(w, he.code, "%s", he.msg)
		} else {
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	enc := sp.Start("encode")
	a.write(w, r)
	enc.End()
}

// write answers r with the stored body, or with a bodiless 304 when r's
// If-None-Match names its tag.
func (a *stored) write(w http.ResponseWriter, r *http.Request) {
	h := w.Header()
	h["Etag"] = a.etag
	if inm := r.Header.Get("If-None-Match"); inm != "" && noneMatch(inm, a.etag[0]) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = a.length
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(a.body)
}

// noneMatch reports whether an If-None-Match header value matches etag:
// "*", or a comma-separated list holding it, compared weakly as RFC 9110
// asks for If-None-Match (a W/ prefix is ignored).
func noneMatch(header, etag string) bool {
	for header != "" {
		var tag string
		tag, header, _ = strings.Cut(header, ",")
		tag = strings.TrimSpace(tag)
		if tag == "*" || strings.TrimPrefix(tag, "W/") == etag {
			return true
		}
	}
	return false
}
