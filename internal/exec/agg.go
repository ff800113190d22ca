package exec

import (
	"sort"

	"repro/internal/record"
)

// aggKind enumerates supported aggregate functions.
type aggKind int

const (
	aggMin aggKind = iota
	aggMax
	aggCount
)

// aggKinds maps the aggregate names the parser admits to their kinds.
var aggKinds = map[string]aggKind{"MIN": aggMin, "MAX": aggMax, "COUNT": aggCount}

// aggSpec is one aggregate to compute.
type aggSpec struct {
	kind aggKind
	arg  scalarFn // nil for COUNT(*)
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count  int64
	minmax record.Value
	has    bool
}

func (a *aggState) add(kind aggKind, v record.Value) {
	switch kind {
	case aggCount:
		a.count++
	case aggMin:
		if !v.Null && (!a.has || v.I < a.minmax.I) {
			a.minmax, a.has = v, true
		}
	case aggMax:
		if !v.Null && (!a.has || v.I > a.minmax.I) {
			a.minmax, a.has = v, true
		}
	}
}

func (a *aggState) result(kind aggKind) record.Value {
	if kind == aggCount {
		return record.Int(a.count)
	}
	if !a.has {
		return record.Value{Null: true}
	}
	return a.minmax
}

// Aggregate hash-aggregates its input. Output rows are
// [group values..., aggregate results...]. With no GROUP BY, exactly one
// row is produced even for empty input (SQL semantics: MIN of nothing is
// NULL, COUNT of nothing is 0) — the paper's termination checks rely on
// `SELECT MIN(d2s) ...` returning a NULL row when no candidates remain.
type Aggregate struct {
	Input    Node
	GroupFns []scalarFn
	Specs    []aggSpec
	out      []record.Row
	pos      int
	keys     []record.Value // the current row's group values
	keyBuf   []byte         // their encoding, the group's map key
}

// aggGroup is one group: its values and one state per aggregate.
type aggGroup struct {
	keys   []record.Value
	states []aggState
}

// Open implements Node: drains the input and computes all groups.
func (a *Aggregate) Open(ctx *Ctx) error {
	a.out = a.out[:0]
	a.pos = 0
	if err := a.Input.Open(ctx); err != nil {
		return err
	}
	defer a.Input.Close()
	// Without GROUP BY there is one group, there from the start: no map, no
	// key per row.
	var global *aggGroup
	groups := make([]*aggGroup, 0, 1) // deterministic output order (first-seen)
	var byKey map[string]*aggGroup
	if len(a.GroupFns) == 0 {
		global = &aggGroup{states: make([]aggState, len(a.Specs))}
		groups = append(groups, global)
	} else {
		byKey = make(map[string]*aggGroup)
	}
	for {
		r, err := a.Input.Next(ctx)
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		g := global
		if byKey != nil {
			a.keys = a.keys[:0]
			for _, f := range a.GroupFns {
				v, err := f(ctx, r)
				if err != nil {
					return err
				}
				a.keys = append(a.keys, v)
			}
			a.keyBuf = record.EncodeKey(a.keyBuf[:0], a.keys...)
			if g = byKey[string(a.keyBuf)]; g == nil {
				// The group outlives the row it was first seen in.
				g = &aggGroup{keys: append([]record.Value(nil), a.keys...), states: make([]aggState, len(a.Specs))}
				byKey[string(a.keyBuf)] = g
				groups = append(groups, g)
			}
		}
		for i, spec := range a.Specs {
			var v record.Value
			if spec.arg != nil {
				if v, err = spec.arg(ctx, r); err != nil {
					return err
				}
			}
			g.states[i].add(spec.kind, v)
		}
	}
	for _, g := range groups {
		row := make(record.Row, 0, len(g.keys)+len(a.Specs))
		row = append(row, g.keys...)
		for i, spec := range a.Specs {
			row = append(row, g.states[i].result(spec.kind))
		}
		a.out = append(a.out, row)
	}
	return nil
}

// Next implements Node.
func (a *Aggregate) Next(*Ctx) (record.Row, error) {
	if a.pos >= len(a.out) {
		return nil, nil
	}
	r := a.out[a.pos]
	a.pos++
	return r, nil
}

// Close implements Node.
func (a *Aggregate) Close() { a.out = nil }

// Clone implements Node.
func (a *Aggregate) Clone() Node {
	return &Aggregate{Input: a.Input.Clone(), GroupFns: a.GroupFns, Specs: a.Specs}
}

// --- window ------------------------------------------------------------------

// windowSpec is one compiled ROW_NUMBER() OVER (PARTITION BY partFns ORDER
// BY orderFns), both ascending.
type windowSpec struct {
	partFns  []scalarFn
	orderFns []scalarFn
}

// Window materializes its input and appends one column per window function:
// output rows are [input columns..., window results...]. This implements
// the SQL:2003 feature the paper highlights: ROW_NUMBER() OVER (PARTITION
// BY x ORDER BY y) lets the E-operator keep the cheapest expansion per node
// while carrying the non-aggregate p2s column along.
type Window struct {
	Input Node
	Specs []windowSpec
	out   []record.Row
	pos   int
}

// Open implements Node.
func (w *Window) Open(ctx *Ctx) error {
	w.pos = 0
	w.out = w.out[:0]
	if err := w.Input.Open(ctx); err != nil {
		return err
	}
	defer w.Input.Close()
	for {
		r, err := w.Input.Next(ctx)
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		// The copy kept past the input's next row is made at output width.
		w.out = append(w.out, append(make(record.Row, 0, len(r)+len(w.Specs)), r...))
	}
	results := make([][]int64, len(w.Specs))
	for si, spec := range w.Specs {
		res, err := computeWindow(ctx, w.out, spec)
		if err != nil {
			return err
		}
		results[si] = res
	}
	for i := range w.out {
		for si := range w.Specs {
			w.out[i] = append(w.out[i], record.Int(results[si][i]))
		}
	}
	return nil
}

func computeWindow(ctx *Ctx, rows []record.Row, spec windowSpec) ([]int64, error) {
	type keyed struct {
		idx   int
		pkey  string
		okeys []record.Value
	}
	ks := make([]keyed, len(rows))
	for i, r := range rows {
		pvals := make([]record.Value, len(spec.partFns))
		for j, f := range spec.partFns {
			v, err := f(ctx, r)
			if err != nil {
				return nil, err
			}
			pvals[j] = v
		}
		ovals := make([]record.Value, len(spec.orderFns))
		for j, f := range spec.orderFns {
			v, err := f(ctx, r)
			if err != nil {
				return nil, err
			}
			ovals[j] = v
		}
		ks[i] = keyed{idx: i, pkey: string(record.EncodeKey(nil, pvals...)), okeys: ovals}
	}
	sort.SliceStable(ks, func(a, b int) bool {
		if ks[a].pkey != ks[b].pkey {
			return ks[a].pkey < ks[b].pkey
		}
		for j := range ks[a].okeys {
			if c := record.Compare(ks[a].okeys[j], ks[b].okeys[j]); c != 0 {
				return c < 0
			}
		}
		return ks[a].idx < ks[b].idx // deterministic tie-break
	})
	out := make([]int64, len(rows))
	var num int64
	for i, k := range ks {
		if i == 0 || k.pkey != ks[i-1].pkey {
			num = 0
		}
		num++
		out[k.idx] = num
	}
	return out, nil
}

// Next implements Node.
func (w *Window) Next(*Ctx) (record.Row, error) {
	if w.pos >= len(w.out) {
		return nil, nil
	}
	r := w.out[w.pos]
	w.pos++
	return r, nil
}

// Close implements Node.
func (w *Window) Close() { w.out = nil }

// Clone implements Node.
func (w *Window) Clone() Node { return &Window{Input: w.Input.Clone(), Specs: w.Specs} }
