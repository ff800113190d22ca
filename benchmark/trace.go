package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"repro/internal/core"
)

// span is one interval at a layer boundary, recorded by the benchmark around
// its calls into the program under test. Times are microseconds since the
// tracer started. Spans of one request share Query.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = no parent
	Name   string  `json:"name"`
	Query  int     `json:"query"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	// Aggregated marks a child whose duration is a sum the engine reported
	// (QueryStats phase timers, the response's duration_us), not an interval
	// the benchmark observed: it is laid out from its parent's start.
	Aggregated bool `json:"aggregated,omitempty"`
	// Counts are counter deltas taken at the span's boundaries.
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

func (tr *tracer) at(t time.Time) float64 { return us(t.Sub(tr.t0)) }

func (tr *tracer) add(parent int, name string, query int, start, end float64, aggregated bool) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Query: query, Start: start, End: end, Aggregated: aggregated})
	return id
}

// child lays an engine-reported duration out as a span starting at *cursor
// under parent, and advances the cursor past it.
func (tr *tracer) child(parent int, name string, query int, cursor *float64, d time.Duration) {
	tr.add(parent, name, query, *cursor, *cursor+us(d), true)
	*cursor += us(d)
}

// query records one Engine.Query call and the stage decomposition its
// QueryStats report. The query span's self time is what the engine spends
// outside the stages it accounts for.
func (tr *tracer) query(parent, idx int, start time.Time, d time.Duration, qs *core.QueryStats, counts map[string]uint64) {
	s := tr.at(start)
	id := tr.add(parent, "query", idx, s, s+us(d), false)
	tr.spans[id-1].Counts = counts
	tr.stages(id, idx, s, qs)
}

// stages lays the engine-reported stages of one search out under parent:
// gate wait, planning, and the search with its three SQL phases. The search
// span's self time is the Go FEM loop.
func (tr *tracer) stages(parent, idx int, start float64, qs *core.QueryStats) {
	if qs == nil || qs.CacheHit {
		return
	}
	cur := start
	tr.child(parent, "gate", idx, &cur, qs.GateWait)
	tr.child(parent, "plan", idx, &cur, qs.PlanDur)
	search := tr.add(parent, "search", idx, cur, cur+us(qs.Total), true)
	tr.child(search, "sql.pe", idx, &cur, qs.PE)
	tr.child(search, "sql.sc", idx, &cur, qs.SC)
	tr.child(search, "sql.fpr", idx, &cur, qs.FPR)
}

// layerTime is one row of the trace summary.
type layerTime struct {
	Name   string  `json:"name"`
	Spans  int     `json:"spans"`
	TimeUS float64 `json:"time_us"`
	SelfUS float64 `json:"self_us"`
}

// summary gives each span name's total and self time: a span's self time is
// its duration minus the part its children cover.
func (tr *tracer) summary() []layerTime {
	childTime := make([]float64, len(tr.spans)+1)
	for _, s := range tr.spans {
		childTime[s.Parent] += s.End - s.Start
	}
	byName := map[string]*layerTime{}
	for _, s := range tr.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Spans++
		lt.TimeUS += d
		if self := d - childTime[s.ID]; self > 0 {
			lt.SelfUS += self
		}
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// coverage is the share of the named spans' time that their children
// account for; the rest is the spans' own self time.
func (tr *tracer) coverage(name string) float64 {
	var total, covered float64
	parent := map[int]bool{}
	for _, s := range tr.spans {
		if s.Name == name {
			parent[s.ID] = true
			total += s.End - s.Start
		}
	}
	for _, s := range tr.spans {
		if parent[s.Parent] {
			covered += s.End - s.Start
		}
	}
	return ratio(covered, total)
}

func (tr *tracer) write(path, workload string, seed int64) error {
	doc := struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Summary  []layerTime `json:"summary"`
		Spans    []span      `json:"spans"`
	}{workload, seed, tr.summary(), tr.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
