package exec

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"slices"

	"repro/internal/record"
	"repro/internal/sql"
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
//
// An aggregate the planner found to fold (foldable) has a Fold: it runs on
// the pages of the table its SeqScan input reads, not on the scan's rows.
type Aggregate struct {
	Input    Node
	GroupFns []scalarFn
	Specs    []aggSpec
	Fold     [][]int // per aggregate, the stored columns whose sum it folds (none for COUNT(*)); nil: no fold
	out      []record.Row
	pos      int
	keys     []record.Value // the current row's group values
	keyBuf   []byte         // their encoding, the group's map key
	states   []aggState     // a fold's states and result row, reused across executions
	row      record.Row
	one      [1]record.Row // backs out for a fold
}

// foldable returns the fold of an aggregate without GROUP BY over input,
// the columns of each call, when input is a SeqScan without a residual and
// each call is COUNT(*), or MIN or MAX of a column of lay (the scan's
// layout) or a + of such; otherwise nil.
func foldable(input Node, calls []*sql.FuncCall, lay *Layout) [][]int {
	if s, ok := input.(*SeqScan); !ok || s.Residual != nil {
		return nil
	}
	fold := make([][]int, len(calls))
	for i, call := range calls {
		if call.Arg == nil { // COUNT(*), the one form of COUNT
			continue
		}
		var ok bool
		if fold[i], ok = sumCols(call.Arg, lay, nil); !ok {
			return nil
		}
	}
	return fold
}

// sumCols appends to cols the ordinals of the columns of lay whose sum e is
// — a column, or a + of such — and reports whether e is one.
func sumCols(e sql.Expr, lay *Layout, cols []int) ([]int, bool) {
	switch ex := e.(type) {
	case *sql.ColumnRef:
		i, err := lay.Resolve(ex.Table, ex.Name)
		return append(cols, i), err == nil
	case *sql.Binary:
		if ex.Op == "+" {
			if cols, ok := sumCols(ex.L, lay, cols); ok {
				return sumCols(ex.R, lay, cols)
			}
		}
	}
	return nil, false
}

// openFold computes a fold: it binds the SeqScan input's pushed predicates
// and has its table run each tuple that passes them through the states, the
// columns read in place on the pinned page (table.Table.Fold). It fetches
// the pages the scan would and decodes no row.
func (a *Aggregate) openFold(ctx *Ctx) error {
	s := a.Input.(*SeqScan)
	if err := s.bind(ctx, nil); err != nil {
		return err
	}
	a.states = append(a.states[:0], make([]aggState, len(a.Fold))...)
	if !s.empty {
		err := s.Table.Fold(s.preds, func(tuple []byte) {
			for i, cols := range a.Fold {
				var v int64 // wraps, as arith does
				for _, c := range cols {
					v += int64(binary.LittleEndian.Uint64(tuple[8*c:]))
				}
				a.states[i].add(a.Specs[i].kind, record.Int(v))
			}
		})
		if err != nil {
			return err
		}
	}
	a.row = a.row[:0]
	for i, spec := range a.Specs {
		a.row = append(a.row, a.states[i].result(spec.kind))
	}
	a.out = append(a.one[:0], a.row)
	return nil
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
	if a.Fold != nil {
		return a.openFold(ctx)
	}
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
	return &Aggregate{Input: a.Input.Clone(), GroupFns: a.GroupFns, Specs: a.Specs, Fold: a.Fold}
}

// --- window ------------------------------------------------------------------

// Window is ROW_NUMBER() OVER (PARTITION BY … ORDER BY …) kept to rank 1, the
// one form the planner admits (takeRankOne consumes the enclosing `rn = 1`).
// An input row is an offer: the block's row, its rank already 1, in
// [0, Width), then the partition values up to Order and the order values. Of
// each partition it keeps the block's row of the offer with the least order
// values, the earliest on a tie, and emits the winners in input order. This
// is the SQL:2003 feature the paper highlights: the E-operator keeps the
// cheapest expansion per node while carrying the non-aggregate p2s column
// along.
//
// One hashed pass does it, with no sort of the offers, copying an offer only
// while it leads its partition. The winners live in slabs the instance keeps between
// executions — each one's block row and order values in vals, its partition
// key's bytes in keys — and index maps a key's hash to the newest winner
// with it, plus one, each winner chaining to the one before, so neither an
// offer nor a partition allocates. Close drops the slabs of an execution
// with more than windowKeep winners, so what an instance keeps does not grow
// with the largest execution it ran, and Open sizes the next ones from that
// count rather than regrowing them by doubling.
type Window struct {
	Input        Node
	Width, Order int
	index        map[uint64]int32
	win          []winner
	vals         []record.Value // winner slot s's block row and order values at [s*stride, (s+1)*stride)
	keys         []byte
	key          []byte // the current offer's partition key
	stride       int
	dropped      int // winners of the execution whose slabs Close dropped
	pos          int
}

// windowKeep is the most winners whose slabs a Window keeps past Close.
const windowKeep = 1024

// windowSeed hashes every Window's partition keys.
var windowSeed = maphash.MakeSeed()

// winner is one partition's best offer so far.
type winner struct {
	at     int   // the input position of the offer
	slot   int32 // its place in vals
	lo, hi int32 // its key's bytes in keys
	next   int32 // the winner before it whose key hashes alike; -1 ends the chain
}

// Open implements Node: drains the input and keeps each partition's winner.
func (w *Window) Open(ctx *Ctx) error {
	w.pos = 0
	if n := w.dropped; w.index == nil {
		w.index = make(map[uint64]int32, n)
		w.win = make([]winner, 0, n)
		w.vals = make([]record.Value, 0, n*w.stride)
		w.keys = make([]byte, 0, n*9*(w.Order-w.Width))
	} else {
		clear(w.index)
		w.win, w.vals, w.keys = w.win[:0], w.vals[:0], w.keys[:0]
	}
	if err := w.Input.Open(ctx); err != nil {
		return err
	}
	defer w.Input.Close()
	for at := 0; ; at++ {
		r, err := w.Input.Next(ctx)
		if err != nil {
			return err
		}
		if r == nil {
			break
		}
		w.offer(r, at)
	}
	slices.SortFunc(w.win, func(a, b winner) int { return a.at - b.at })
	return nil
}

// offer makes r, the input row at position at, its partition's winner if it
// is the partition's first offer or beats the winner.
func (w *Window) offer(r record.Row, at int) {
	w.key = record.EncodeKey(w.key[:0], r[w.Width:w.Order]...)
	row, ord := r[:w.Width], r[w.Order:]
	h := maphash.Bytes(windowSeed, w.key)
	head := w.index[h] - 1
	for i := head; i >= 0; i = w.win[i].next {
		if wn := &w.win[i]; bytes.Equal(w.keys[wn.lo:wn.hi], w.key) {
			kept := w.vals[int(i)*w.stride:][:w.stride]
			if slices.CompareFunc(ord, kept[w.Width:], record.Compare) < 0 {
				wn.at = at
				copy(kept, row)
				copy(kept[w.Width:], ord)
			}
			return
		}
	}
	w.stride = w.Width + len(ord)
	if len(w.vals)+w.stride > cap(w.vals) { // append grows a large slice by a quarter: double it instead
		w.vals = append(make([]record.Value, 0, 2*cap(w.vals)+w.stride), w.vals...)
	}
	slot := int32(len(w.win))
	w.win = append(w.win, winner{at: at, slot: slot, lo: int32(len(w.keys)), hi: int32(len(w.keys) + len(w.key)), next: head})
	w.keys = append(w.keys, w.key...)
	w.vals = append(append(w.vals, row...), ord...)
	w.index[h] = slot + 1
}

// Next implements Node: the winners' block rows, in input order.
func (w *Window) Next(*Ctx) (record.Row, error) {
	if w.pos >= len(w.win) {
		return nil, nil
	}
	s := int(w.win[w.pos].slot) * w.stride
	w.pos++
	return w.vals[s : s+w.Width : s+w.Width], nil
}

// Close implements Node.
func (w *Window) Close() {
	if cap(w.win) > windowKeep {
		w.dropped = len(w.win)
		w.index, w.win, w.vals, w.keys = nil, nil, nil, nil
	}
}

// Clone implements Node.
func (w *Window) Clone() Node { return &Window{Input: w.Input.Clone(), Width: w.Width, Order: w.Order} }
