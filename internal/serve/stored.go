package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"mpa"
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
	// A strong ETag: the first 128 bits of the SHA-256 of the bytes, in
	// hex and quoted.
	sum := sha256.Sum256(b)
	return &stored{
		body:   b,
		etag:   []string{`"` + hex.EncodeToString(sum[:16]) + `"`},
		length: []string{strconv.Itoa(len(b))},
	}, nil
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
// is encoded and tagged once. The lookup, and on a miss the build, runs
// under the stage span; the write under "encode". A build error answers
// through writeError and is not stored: an *httpError with its status,
// anything else (a waiter on a build that panicked) a 500.
func respond(w http.ResponseWriter, r *http.Request, f *mpa.Framework, stage, network, key string, build func(*mpa.Framework) (any, error)) {
	sp := obs.SpanFrom(r.Context())
	c := sp.Start(stage)
	a, err := mpa.Memoized(f, network, key, func(q *mpa.Framework) (*stored, error) {
		v, err := build(q)
		if err != nil {
			return nil, err
		}
		return newStored(v)
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
