package obs

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder is the flight recorder: an always-on, bounded record of the
// process's completed root spans — one summary per serve request or
// pipeline stage — plus full span trees retained for the K slowest
// entries and the K most recent errors, and a small ring of recent
// Warn/Error log records captured through an slog.Handler tee
// (LogHandler). It exists so an operator seeing a latency spike in
// /metrics can ask "which request, and where did it spend its time?"
// after the fact: /debug/requests serves the ring, /debug/requests/{id}
// the retained tree, and /debug/requests/{id}/trace a Chrome trace of
// that one request. Run manifests snapshot the same state (Snapshot).
//
// Every mutation takes one short mutex-protected critical section over
// fixed-size state, so recording stays cheap enough to run on every
// request. All methods are safe for concurrent use and on a nil
// receiver (no-ops / zero values), matching the rest of the package.
type Recorder struct {
	mu       sync.Mutex
	ring     []RequestSummary // circular; next is the write cursor
	next     int
	count    int // total ever recorded
	trees    map[string]*retainedTree
	slowIDs  [2][]string // ids retained as slowest, per slowClass; unordered, each bounded by keepSlowest
	errIDs   []string    // ids retained as recent errors; FIFO, bounded by keepErrors
	logs     []LogRecord // circular
	logNext  int
	logCount int
}

// A Recorder's bounds.
const (
	// ringSize is how many completed-entry summaries are kept.
	ringSize = 256
	// keepSlowest is how many full span trees are retained for the
	// slowest entries seen so far: that many for requests, and that many
	// more for pipeline stages (slowClass).
	keepSlowest = 8
	// keepErrors is how many full span trees are retained for the most
	// recent errored entries.
	keepErrors = 8
	// logRingSize is how many recent Warn/Error log records are kept.
	logRingSize = 64
)

// retainedTree is one span tree held beyond its summary, kept while it
// is referenced as a slowest entry, a recent error, or both.
type retainedTree struct {
	span  *Span
	durNS int64
	slow  bool // referenced from slowIDs
	err   bool // referenced from errIDs
}

// NewRecorder builds an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		ring:  make([]RequestSummary, ringSize),
		trees: map[string]*retainedTree{},
		logs:  make([]LogRecord, logRingSize),
	}
}

var defaultRecorder = NewRecorder()

// DefaultRecorder returns the process-wide flight recorder: the one the
// shared debug mux serves, run manifests snapshot, and the default
// logger tees Warn/Error records into.
func DefaultRecorder() *Recorder { return defaultRecorder }

// RequestMeta carries the per-entry facts the span itself doesn't know.
type RequestMeta struct {
	// ID identifies the entry; empty generates one (NewRequestID).
	ID string
	// Status is the HTTP status for serve requests (0 for batch stages).
	Status int
	// Err marks the entry as failed; its tree joins the recent-error set.
	Err bool
	// Slow marks the entry as over the caller's slow threshold.
	Slow bool
	// Tenant is the organization the request resolved to (multi-tenant
	// serve); empty for batch stages and single-tenant daemons.
	Tenant string
}

// RequestSummary is one completed entry as kept in the recorder ring.
type RequestSummary struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	AllocBytes uint64    `json:"alloc_bytes,omitempty"`
	Status     int       `json:"status,omitempty"`
	Err        bool      `json:"error,omitempty"`
	Slow       bool      `json:"slow,omitempty"`
	Tenant     string    `json:"tenant,omitempty"`
	// TraceRetained reports whether the full span tree is still held
	// (slowest / recent-error sets); filled at read time, since retention
	// changes as later entries arrive.
	TraceRetained bool        `json:"trace_retained"`
	Stages        []StageStat `json:"stages,omitempty"`
}

// maxStageRows caps the per-entry breakdown: the top rows by duration.
const maxStageRows = 8

// Record captures one completed root span: a compact summary enters the
// ring, and the full tree is retained while the entry ranks among the
// keepSlowest slowest or the keepErrors most recent errors. It returns
// the stored summary (with the assigned ID). Recording a nil span or on
// a nil recorder is a no-op.
func (r *Recorder) Record(sp *Span, meta RequestMeta) RequestSummary {
	if r == nil || sp == nil {
		return RequestSummary{}
	}
	if meta.ID == "" {
		meta.ID = NewRequestID()
	}
	sum := RequestSummary{
		ID:         meta.ID,
		Name:       sp.Name(),
		Start:      sp.StartTime(),
		DurationNS: sp.Duration().Nanoseconds(),
		AllocBytes: sp.AllocBytes(),
		Status:     meta.Status,
		Err:        meta.Err,
		Slow:       meta.Slow,
		Tenant:     meta.Tenant,
		Stages:     sp.Stages(),
	}
	sort.SliceStable(sum.Stages, func(i, j int) bool { return sum.Stages[i].Duration > sum.Stages[j].Duration })
	if len(sum.Stages) > maxStageRows {
		sum.Stages = sum.Stages[:maxStageRows]
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring[r.next] = sum
	r.next = (r.next + 1) % len(r.ring)
	r.count++
	if meta.Err {
		r.retainError(meta.ID, sp, sum.DurationNS)
	}
	r.retainSlow(meta.ID, sp, sum.DurationNS)
	sum.TraceRetained = r.trees[meta.ID] != nil
	return sum
}

// retainError adds id to the recent-error set, evicting the oldest
// error beyond keepErrors. Caller holds r.mu.
func (r *Recorder) retainError(id string, sp *Span, durNS int64) {
	t := r.ensureTree(id, sp, durNS)
	if t.err {
		return // same id re-recorded; already in the FIFO
	}
	t.err = true
	r.errIDs = append(r.errIDs, id)
	if len(r.errIDs) > keepErrors {
		old := r.errIDs[0]
		r.errIDs = r.errIDs[1:]
		if ot := r.trees[old]; ot != nil {
			ot.err = false
			r.dropUnreferenced(old, ot)
		}
	}
}

// slowClass is the slowest set an entry competes in: 1 for a pipeline
// stage (ID "stage-<seq>-<name>"), 0 for anything else. A daemon's
// start-up stages run far longer than its requests, so in one set they
// would hold every slot for good.
func slowClass(id string) int {
	if strings.HasPrefix(id, stageIDPrefix) {
		return 1
	}
	return 0
}

// retainSlow keeps id's tree if it ranks among the keepSlowest slowest
// entries of its class seen so far, evicting the class's fastest member
// when full. Caller holds r.mu.
func (r *Recorder) retainSlow(id string, sp *Span, durNS int64) {
	if t := r.trees[id]; t != nil && t.slow {
		if durNS > t.durNS {
			t.durNS = durNS
			t.span = sp
		}
		return
	}
	ids := &r.slowIDs[slowClass(id)]
	if len(*ids) < keepSlowest {
		r.ensureTree(id, sp, durNS).slow = true
		*ids = append(*ids, id)
		return
	}
	// Full: find the fastest retained entry and replace it if beaten.
	minIdx, minDur := -1, int64(0)
	for i, sid := range *ids {
		if t := r.trees[sid]; t != nil && (minIdx < 0 || t.durNS < minDur) {
			minIdx, minDur = i, t.durNS
		}
	}
	if minIdx < 0 || durNS <= minDur {
		return
	}
	old := (*ids)[minIdx]
	if ot := r.trees[old]; ot != nil {
		ot.slow = false
		r.dropUnreferenced(old, ot)
	}
	r.ensureTree(id, sp, durNS).slow = true
	(*ids)[minIdx] = id
}

func (r *Recorder) ensureTree(id string, sp *Span, durNS int64) *retainedTree {
	t := r.trees[id]
	if t == nil {
		t = &retainedTree{span: sp, durNS: durNS}
		r.trees[id] = t
	}
	return t
}

func (r *Recorder) dropUnreferenced(id string, t *retainedTree) {
	if !t.slow && !t.err {
		delete(r.trees, id)
	}
}

// Summaries returns the recorded entries, newest first, with
// TraceRetained reflecting current retention.
func (r *Recorder) Summaries() []RequestSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.count
	if n > len(r.ring) {
		n = len(r.ring)
	}
	out := make([]RequestSummary, 0, n)
	for i := 1; i <= n; i++ {
		s := r.ring[(r.next-i+len(r.ring))%len(r.ring)]
		s.TraceRetained = r.trees[s.ID] != nil
		out = append(out, s)
	}
	return out
}

// Slowest returns up to n recorded entries ordered by descending
// duration — `mpa stats` prints these as the slowest stages of the run.
func (r *Recorder) Slowest(n int) []RequestSummary {
	all := r.Summaries()
	sort.SliceStable(all, func(i, j int) bool { return all[i].DurationNS > all[j].DurationNS })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Get returns the most recent summary recorded under id, with
// TraceRetained set; ok is false when id is not in the ring.
func (r *Recorder) Get(id string) (RequestSummary, bool) {
	for _, s := range r.Summaries() {
		if s.ID == id {
			return s, true
		}
	}
	return RequestSummary{}, false
}

// Tree returns the retained span tree for id, or nil when the tree was
// never retained or has been evicted.
func (r *Recorder) Tree(id string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.trees[id]; t != nil {
		return t.span
	}
	return nil
}

// Count returns how many entries have ever been recorded (the ring
// keeps the most recent Ring of them).
func (r *Recorder) Count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// RecorderSnapshot is a point-in-time copy of a recorder's state, as
// embedded in run manifests ("recorder" section).
type RecorderSnapshot struct {
	// Requests lists the ring's summaries, newest first.
	Requests []RequestSummary `json:"requests,omitempty"`
	// RetainedTraces lists the IDs whose full span trees are held.
	RetainedTraces []string `json:"retained_traces,omitempty"`
	// Logs lists the recent Warn/Error records, newest first.
	Logs []LogRecord `json:"logs,omitempty"`
}

// Snapshot copies the recorder's current state.
func (r *Recorder) Snapshot() RecorderSnapshot {
	if r == nil {
		return RecorderSnapshot{}
	}
	snap := RecorderSnapshot{Requests: r.Summaries(), Logs: r.Logs()}
	r.mu.Lock()
	ids := make([]string, 0, len(r.trees))
	for id := range r.trees {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	sort.Strings(ids)
	if len(ids) > 0 {
		snap.RetainedTraces = ids
	}
	return snap
}

// LogRecord is one captured Warn/Error log line.
type LogRecord struct {
	Time  time.Time         `json:"time"`
	Level string            `json:"level"`
	Msg   string            `json:"msg"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Logs returns the captured Warn/Error records, newest first.
func (r *Recorder) Logs() []LogRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.logCount
	if n > len(r.logs) {
		n = len(r.logs)
	}
	out := make([]LogRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.logs[(r.logNext-i+len(r.logs))%len(r.logs)])
	}
	return out
}

func (r *Recorder) addLog(rec LogRecord) {
	r.mu.Lock()
	r.logs[r.logNext] = rec
	r.logNext = (r.logNext + 1) % len(r.logs)
	r.logCount++
	r.mu.Unlock()
}

// teeHandler forwards every record to next and captures Warn/Error
// records into the recorder's log ring on the way through. Group names
// are applied to next but flattened out of the captured attrs.
type teeHandler struct {
	rec   *Recorder
	next  slog.Handler
	attrs []slog.Attr // pre-bound via WithAttrs, resolved at Handle time
}

// LogHandler wraps next so Warn/Error records land in the recorder's
// log ring regardless of next's level gate; everything still flows to
// next under its own gating. The default obs logger is built with this
// tee over the default recorder, which is what makes the recorder's log
// ring always-on.
func (r *Recorder) LogHandler(next slog.Handler) slog.Handler {
	return &teeHandler{rec: r, next: next}
}

func (h *teeHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return level >= slog.LevelWarn || h.next.Enabled(ctx, level)
}

func (h *teeHandler) Handle(ctx context.Context, rec slog.Record) error {
	if h.rec != nil && rec.Level >= slog.LevelWarn {
		attrs := map[string]string{}
		for _, a := range h.attrs {
			attrs[a.Key] = a.Value.Resolve().String()
		}
		rec.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value.Resolve().String()
			return true
		})
		if len(attrs) == 0 {
			attrs = nil
		}
		h.rec.addLog(LogRecord{
			Time:  rec.Time,
			Level: rec.Level.String(),
			Msg:   rec.Message,
			Attrs: attrs,
		})
	}
	if h.next.Enabled(ctx, rec.Level) {
		return h.next.Handle(ctx, rec)
	}
	return nil
}

func (h *teeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	merged := append(append([]slog.Attr(nil), h.attrs...), attrs...)
	return &teeHandler{rec: h.rec, next: h.next.WithAttrs(attrs), attrs: merged}
}

func (h *teeHandler) WithGroup(name string) slog.Handler {
	return &teeHandler{rec: h.rec, next: h.next.WithGroup(name), attrs: h.attrs}
}

// reqSeq backs the fallback request-ID generator.
var reqSeq atomic.Uint64

// NewRequestID returns a fresh 16-hex-character request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		return hex.EncodeToString(b[:])
	}
	return fmt.Sprintf("%016x", uint64(time.Now().UnixNano())^reqSeq.Add(1)<<48)
}

// RequestIDFrom derives the request ID for an incoming request:
// an explicit X-Request-ID header wins (sanitized), then the trace-id
// of a well-formed W3C traceparent, then a freshly generated ID.
func RequestIDFrom(traceparent, xRequestID string) string {
	if id := sanitizeRequestID(xRequestID); id != "" {
		return id
	}
	if id, ok := ParseTraceParent(traceparent); ok {
		return id
	}
	return NewRequestID()
}

// sanitizeRequestID keeps the characters safe to echo in headers, URLs,
// and log lines ([A-Za-z0-9._-]), capped at 128; anything else drops.
func sanitizeRequestID(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 128 {
		s = s[:128]
	}
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteRune(c)
		}
	}
	return b.String()
}

// ParseTraceParent extracts the trace-id from a W3C traceparent header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>"). ok is
// false for malformed values, the forbidden version ff, and the all-zero
// trace-id the spec declares invalid.
func ParseTraceParent(s string) (traceID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return "", false
	}
	if strings.EqualFold(parts[0], "ff") {
		return "", false
	}
	zero := true
	for _, p := range parts[:3] {
		if _, err := hex.DecodeString(strings.ToLower(p)); err != nil {
			return "", false
		}
	}
	for _, c := range parts[1] {
		if c != '0' {
			zero = false
			break
		}
	}
	if zero {
		return "", false
	}
	return strings.ToLower(parts[1]), true
}

// SpanNode is the JSON form of one span (and, recursively, its
// subtree), served by /debug/requests/{id}. Open spans carry their
// elapsed-so-far duration.
type SpanNode struct {
	Name       string             `json:"name"`
	Start      time.Time          `json:"start"`
	DurationNS int64              `json:"duration_ns"`
	AllocBytes uint64             `json:"alloc_bytes,omitempty"`
	Open       bool               `json:"open,omitempty"`
	Counters   map[string]float64 `json:"counters,omitempty"`
	Children   []SpanNode         `json:"children,omitempty"`
}

// TreeOf renders a span tree as nested SpanNodes.
func TreeOf(s *Span) SpanNode {
	node := SpanNode{
		Name:       s.Name(),
		Start:      s.StartTime(),
		DurationNS: s.Duration().Nanoseconds(),
		AllocBytes: s.AllocBytes(),
		Open:       !s.Ended(),
		Counters:   s.Counters(),
	}
	for _, c := range s.Children() {
		node.Children = append(node.Children, TreeOf(c))
	}
	return node
}
