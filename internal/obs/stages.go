package obs

import (
	"maps"
	"slices"
	"sync/atomic"
	"time"
)

// StageStat is one row of a stage breakdown: every span of one name,
// with Calls counting each start and the durations, allocations and
// counters of the ended ones summed.
type StageStat struct {
	Name       string             `json:"name"`
	Calls      int                `json:"calls"`
	Duration   time.Duration      `json:"duration_ns"`
	AllocBytes uint64             `json:"alloc_bytes,omitempty"`
	Counters   map[string]float64 `json:"counters,omitempty"`
}

// stageTable is the one fold-by-name: rows in first-start order. A
// stage table folds each of its stages as it ends; Stages folds an
// ordinary span's direct children through it.
type stageTable struct {
	rows  []StageStat
	index map[string]int
}

// open counts one more call of name and returns its row.
func (t *stageTable) open(name string) *StageStat {
	i, ok := t.index[name]
	if !ok {
		i = len(t.rows)
		t.index[name] = i
		t.rows = append(t.rows, StageStat{Name: name})
	}
	t.rows[i].Calls++
	return &t.rows[i]
}

// fold adds one ended call's numbers to the row.
func (r *StageStat) fold(dur time.Duration, alloc uint64, counters map[string]float64) {
	r.Duration += dur
	r.AllocBytes += alloc
	for k, v := range counters {
		if r.Counters == nil {
			r.Counters = make(map[string]float64, len(counters))
		}
		r.Counters[k] += v
	}
}

// stageSeq numbers ended stages process-wide, keeping their recorder IDs
// unique across stage tables.
var stageSeq atomic.Uint64

// stageIDPrefix starts every stage's recorder ID, which keeps stages in
// their own slowest slots (slowClass).
const stageIDPrefix = "stage-"

// NewStageTable starts a root that keeps a stage table, not a span tree:
// a framework's lifetime root, one row per stage name however long it
// runs. A stage opened on it counts in its row when it starts; when it
// ends its numbers fold into the row and its finished tree goes to
// DefaultRecorder (ID "stage-<seq>-<name>") and, while a trace is on, to
// the trace.
func NewStageTable(name string) *Span {
	s := NewRoot(name)
	s.table = &stageTable{index: map[string]int{}}
	return s
}

// Stages folds the span's stages by name, in first-start order: a stage
// table's rows, or an ordinary span's direct children (open ones at
// their elapsed time). The rows are copies.
func (s *Span) Stages() []StageStat {
	if s == nil {
		return nil
	}
	if s.table != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		rows := slices.Clone(s.table.rows)
		for i := range rows {
			rows[i].Counters = maps.Clone(rows[i].Counters)
		}
		return rows
	}
	t := stageTable{index: map[string]int{}}
	for _, c := range s.Children() {
		t.open(c.Name()).fold(c.Duration(), c.AllocBytes(), c.Counters())
	}
	return t.rows
}
