// Package obs is the zero-dependency observability layer: race-safe
// counters, gauges and fixed-bucket histograms, a scrape-time Collector
// interface, and a renderer for the Prometheus text exposition format
// (version 0.0.4 — the format every scraper understands).
//
// The design splits instrument from transport. Hot paths own the
// instruments (a Histogram's Observe is a handful of atomic adds, safe from
// any goroutine, no allocation); the serving tier owns a Registry of
// Collectors that, on each GET /metrics, walk the instruments and the
// pre-existing stats structs (gate admissions, plan cache, buffer-pool
// shards, ...) and emit samples into an Exporter. Nothing here imports
// anything beyond the standard library, and nothing outside cmd/spdbd needs
// to know the text format exists.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// A Collector contributes samples to one scrape. Implementations read their
// subsystem's counters at call time — scrapes see current values without
// the subsystem pushing anything.
type Collector interface {
	CollectMetrics(x *Exporter)
}

// CollectorFunc adapts a function to the Collector interface.
type CollectorFunc func(x *Exporter)

// CollectMetrics calls f.
func (f CollectorFunc) CollectMetrics(x *Exporter) { f(x) }

// Registry is an ordered set of Collectors rendered into one exposition.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a collector. Collectors render in registration order, so
// register one collector per subsystem and keep each metric family's
// samples inside a single collector (the text format requires a family's
// series to be consecutive).
func (r *Registry) Register(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// WritePrometheus renders every collector into w in the text exposition
// format. It returns the first rendering error (a duplicate family emitted
// across collectors, an invalid name) — scrape handlers should turn that
// into a 500 rather than serve a half-valid page.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	cs := make([]Collector, len(r.collectors))
	copy(cs, r.collectors)
	r.mu.Unlock()
	x := &Exporter{seen: make(map[string]bool)}
	for _, c := range cs {
		c.CollectMetrics(x)
	}
	if x.err != nil {
		return x.err
	}
	_, err := w.Write([]byte(x.b.String()))
	return err
}

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Exporter accumulates one scrape. Collectors call Counter, Gauge and
// Histogram; the first malformed emission latches an error and subsequent
// calls become no-ops, so a bad metric name fails the scrape loudly instead
// of corrupting the page.
type Exporter struct {
	b    strings.Builder
	seen map[string]bool
	last string // family currently open, for the consecutive-series check
	err  error
}

// Counter emits one sample of a monotonically increasing family.
func (x *Exporter) Counter(name, help string, v float64, labels ...Label) {
	x.sample(name, help, "counter", v, labels)
}

// Gauge emits one sample of a family that can go up and down.
func (x *Exporter) Gauge(name, help string, v float64, labels ...Label) {
	x.sample(name, help, "gauge", v, labels)
}

// Histogram emits a histogram family snapshot: one _bucket series per
// bound (cumulative, le-labelled, +Inf last), plus _sum and _count.
func (x *Exporter) Histogram(name, help string, h *Histogram, labels ...Label) {
	if x.err != nil {
		return
	}
	if err := x.openFamily(name, help, "histogram"); err != nil {
		x.err = err
		return
	}
	snap := h.Snapshot()
	cum := uint64(0)
	for i, ub := range h.bounds {
		cum += snap.Counts[i]
		x.series(name+"_bucket", append(labels[:len(labels):len(labels)], L("le", formatFloat(ub))), float64(cum))
	}
	cum += snap.Counts[len(h.bounds)]
	x.series(name+"_bucket", append(labels[:len(labels):len(labels)], L("le", "+Inf")), float64(cum))
	x.series(name+"_sum", labels, snap.Sum)
	// _count is the +Inf cumulative bucket, not the separately-read total:
	// a concurrent Observe landing between the two reads must never make
	// _count disagree with the buckets scrapers integrate over.
	x.series(name+"_count", labels, float64(cum))
}

func (x *Exporter) sample(name, help, typ string, v float64, labels []Label) {
	if x.err != nil {
		return
	}
	if err := x.openFamily(name, help, typ); err != nil {
		x.err = err
		return
	}
	x.series(name, labels, v)
}

// openFamily writes the # HELP / # TYPE header the first time a family
// appears, and rejects a family re-opened after another one rendered
// (non-consecutive series are invalid exposition).
func (x *Exporter) openFamily(name, help, typ string) error {
	if !validName(name) {
		return fmt.Errorf("obs: invalid metric name %q", name)
	}
	if x.last == name {
		return nil
	}
	if x.seen[name] {
		return fmt.Errorf("obs: metric family %q emitted non-consecutively", name)
	}
	x.seen[name] = true
	x.last = name
	fmt.Fprintf(&x.b, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(&x.b, "# TYPE %s %s\n", name, typ)
	return nil
}

func (x *Exporter) series(name string, labels []Label, v float64) {
	x.b.WriteString(name)
	if len(labels) > 0 {
		x.b.WriteByte('{')
		for i, l := range labels {
			if !validLabelName(l.Name) {
				x.err = fmt.Errorf("obs: invalid label name %q on %s", l.Name, name)
				return
			}
			if i > 0 {
				x.b.WriteByte(',')
			}
			fmt.Fprintf(&x.b, "%s=%q", l.Name, l.Value)
		}
		x.b.WriteByte('}')
	}
	x.b.WriteByte(' ')
	x.b.WriteString(formatFloat(v))
	x.b.WriteByte('\n')
}

// formatFloat renders a sample value: integral values without an exponent
// (scrapers and humans both prefer "1024" to "1.024e+03"), infinities in
// the exposition spelling.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', -1, 64)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// escapeHelp escapes backslashes and newlines per the exposition spec.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	// Label names allow the metric charset minus ':'.
	return validName(s) && !strings.Contains(s, ":")
}

// Histogram is a fixed-bucket histogram, safe for concurrent Observe from
// any number of goroutines. Bounds are upper-inclusive bucket edges in
// ascending order; an implicit +Inf bucket catches the tail. Observations
// are float64 by convention in the base unit of the metric name (seconds
// for *_seconds families).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// DefLatencyBuckets spans cache-hit microseconds to stuck-query seconds:
// the range one relational shortest-path query can land in.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// NewHistogram creates a histogram with the given ascending bucket bounds.
// It panics on unordered or empty bounds — bucket layouts are compile-time
// decisions, not runtime input.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds must be ascending")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] == bounds[i-1] {
			panic("obs: duplicate histogram bound")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; the +Inf bucket is index
	// len(bounds).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistSnapshot is a point-in-time read of a histogram. Counts are per
// bucket (not cumulative), the last entry being the +Inf overflow. The
// snapshot is not atomic across buckets — concurrent Observes can land
// between bucket reads — but each counter is individually consistent and
// Count >= sum over a subset read earlier, which is all exposition needs.
type HistSnapshot struct {
	Counts []uint64
	Sum    float64
	Count  uint64
}

// Snapshot reads the current bucket counts, sum and total count.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Counts: make([]uint64, len(h.counts))}
	// Read count and sum first: if Observes race the bucket reads, the
	// bucket cumulative total can only be >= Count, never behind it in a
	// way that invents observations.
	s.Count = h.count.Load()
	s.Sum = math.Float64frombits(h.sum.Load())
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts by
// linear interpolation inside the winning bucket — the usual Prometheus
// histogram_quantile estimate. It returns 0 with no observations; tail
// observations beyond the last finite bound clamp to that bound.
func (h *Histogram) Quantile(q float64) float64 {
	s := h.Snapshot()
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			ub := h.bounds[i]
			if c == 0 {
				return ub
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + (ub-lo)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}
