package exec

import (
	"repro/internal/record"
	"repro/internal/table"
)

// Node is a Volcano-style plan operator. Open may be called again after
// Close (nested-loop joins re-open their inner side per outer row).
//
// A row returned by Next is valid until the next Next on the same operator,
// and whoever keeps a row longer clones it: scans hand out the storage
// iterator's one decode buffer, joins and projections their one output row.
// The operators that keep rows — runPlan's result (so the hash-join build
// side, subqueries and DML sources with it), Window, Aggregate's group keys
// and the DML match lists — take their own copies.
//
// Compiled plans double as prepared-statement templates: Clone returns a
// fresh operator tree sharing the immutable compiled parts (table handles,
// scalar functions, join keys, needed-column sets) but none of the
// iteration state, so one cached plan can be executed by any number of
// concurrent statements.
type Node interface {
	Open(ctx *Ctx) error
	Next(ctx *Ctx) (record.Row, error) // nil, nil == end of stream
	Close()
	Clone() Node
}

// runPlan drains a plan into a materialized slice of rows of its own.
func runPlan(n Node, ctx *Ctx) ([]record.Row, error) {
	if err := n.Open(ctx); err != nil {
		return nil, err
	}
	defer n.Close()
	var out []record.Row
	for {
		r, err := n.Next(ctx)
		if err != nil {
			return nil, err
		}
		if r == nil {
			return out, nil
		}
		out = append(out, r.Clone())
	}
}

// planHasRow reports whether a plan yields at least one row (EXISTS).
func planHasRow(n Node, ctx *Ctx) (bool, error) {
	if err := n.Open(ctx); err != nil {
		return false, err
	}
	defer n.Close()
	r, err := n.Next(ctx)
	if err != nil {
		return false, err
	}
	return r != nil, nil
}

// --- table scans -------------------------------------------------------------

// tableScan is what SeqScan and IndexEqScan share: the storage iterator,
// which lives as long as the operator instance so that re-opening it costs
// no allocation, the columns the plan reads (Need, filled in by the planner
// while it compiles the statement's expressions; see scanLayout), the pushed
// predicates and the residual filter. A pushed predicate is a conjunct `col
// <cmp> operand` whose operand does not read the scanned table (see
// attachResidualsToScan): Open evaluates the operands, once, as it does an
// index probe's keys, and the iterator checks the bound predicates on the
// encoded tuple, so a row they reject is never decoded and a column only they
// read is not in Need. A NULL operand or probe key compares UNKNOWN with every
// row: the scan is then empty from Open on.
type tableScan struct {
	Table    *table.Table
	Need     []bool
	Pushed   []pushedPred
	Residual scalarFn // may be nil
	it       table.Iterator
	preds    []record.Pred // Pushed as bound by Open, reused across re-opens
	empty    bool
}

// pushedPred compares column col with val: sat is the set of three-way
// results, the column on the left, that satisfy the conjunct (see cmpSat).
type pushedPred struct {
	col int
	sat uint8
	val scalarFn
}

// baseScan is a scan of one stored table.
type baseScan interface {
	Node
	base() *tableScan
}

func (s *tableScan) base() *tableScan { return s }

// bind evaluates the pushed predicates' operands for this Open and sets
// empty; keys are an index probe's values.
func (s *tableScan) bind(ctx *Ctx, keys []record.Value) error {
	s.preds, s.empty = s.preds[:0], false
	for _, p := range s.Pushed {
		v, err := p.val(ctx, nil)
		if err != nil {
			return err
		}
		s.empty = s.empty || v.Null
		s.preds = append(s.preds, record.Pred{Col: p.col, Sat: p.sat, Val: v.I})
	}
	for _, k := range keys {
		s.empty = s.empty || k.Null
	}
	return nil
}

// Next implements Node: the returned row is the iterator's buffer.
func (s *tableScan) Next(ctx *Ctx) (record.Row, error) {
	if s.empty {
		return nil, nil
	}
	for s.it.Next() {
		row := s.it.Row()
		if s.Residual != nil {
			v, err := s.Residual(ctx, row)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		return row, nil
	}
	return nil, s.it.Err()
}

// Close implements Node.
func (s *tableScan) Close() {}

// SeqScan reads every row of a table, applying an optional residual filter.
type SeqScan struct{ tableScan }

// Open implements Node.
func (s *SeqScan) Open(ctx *Ctx) error {
	if err := s.bind(ctx, nil); err != nil || s.empty {
		return err
	}
	s.it.Start(s.Table, s.Need, s.preds)
	return nil
}

// Clone implements Node.
func (s *SeqScan) Clone() Node {
	return &SeqScan{tableScan{Table: s.Table, Need: s.Need, Pushed: s.Pushed, Residual: s.Residual}}
}

// IndexEqScan probes an index (or the clustered tree) with equality values
// computed at Open time; probe expressions may reference parameters and
// outer rows, which is how index-nested-loop joins and correlated EXISTS
// probes are realized.
type IndexEqScan struct {
	tableScan
	Index  *table.Index // nil => clustered index
	KeyFns []scalarFn
	vals   []record.Value // probe values, reused across re-opens
}

// Open implements Node.
func (s *IndexEqScan) Open(ctx *Ctx) error {
	s.vals = s.vals[:0]
	for _, f := range s.KeyFns {
		v, err := f(ctx, nil)
		if err != nil {
			return err
		}
		s.vals = append(s.vals, v)
	}
	if err := s.bind(ctx, s.vals); err != nil || s.empty {
		return err
	}
	s.it.Seek(s.Table, s.Index, s.vals, s.Need, s.preds)
	return nil
}

// Clone implements Node.
func (s *IndexEqScan) Clone() Node {
	return &IndexEqScan{tableScan: tableScan{Table: s.Table, Need: s.Need, Pushed: s.Pushed, Residual: s.Residual},
		Index: s.Index, KeyFns: s.KeyFns}
}

// --- Filter / Project -----------------------------------------------------------

// Filter drops rows failing the predicate.
type Filter struct {
	Input Node
	Pred  scalarFn
}

// Open implements Node.
func (f *Filter) Open(ctx *Ctx) error { return f.Input.Open(ctx) }

// Next implements Node.
func (f *Filter) Next(ctx *Ctx) (record.Row, error) {
	for {
		r, err := f.Input.Next(ctx)
		if err != nil || r == nil {
			return r, err
		}
		v, err := f.Pred(ctx, r)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			return r, nil
		}
	}
}

// Close implements Node.
func (f *Filter) Close() { f.Input.Close() }

// Clone implements Node.
func (f *Filter) Clone() Node { return &Filter{Input: f.Input.Clone(), Pred: f.Pred} }

// Project computes output columns from input rows into one reused row.
type Project struct {
	Input Node
	Fns   []scalarFn
	out   record.Row
}

// Open implements Node.
func (p *Project) Open(ctx *Ctx) error { return p.Input.Open(ctx) }

// Next implements Node.
func (p *Project) Next(ctx *Ctx) (record.Row, error) {
	r, err := p.Input.Next(ctx)
	if err != nil || r == nil {
		return nil, err
	}
	p.out = p.out[:0]
	for _, f := range p.Fns {
		v, err := f(ctx, r)
		if err != nil {
			return nil, err
		}
		p.out = append(p.out, v)
	}
	return p.out, nil
}

// Close implements Node.
func (p *Project) Close() { p.Input.Close() }

// Clone implements Node.
func (p *Project) Clone() Node { return &Project{Input: p.Input.Clone(), Fns: p.Fns} }

// --- ValuesNode -------------------------------------------------------------------

// ValuesNode emits a fixed set of rows (SELECT without FROM emits one empty
// row so constant projections work).
type ValuesNode struct {
	Rows []record.Row
	pos  int
}

// Open implements Node.
func (v *ValuesNode) Open(*Ctx) error {
	v.pos = 0
	return nil
}

// Next implements Node.
func (v *ValuesNode) Next(*Ctx) (record.Row, error) {
	if v.pos >= len(v.Rows) {
		return nil, nil
	}
	r := v.Rows[v.pos]
	v.pos++
	return r, nil
}

// Close implements Node.
func (v *ValuesNode) Close() {}

// Clone implements Node.
func (v *ValuesNode) Clone() Node { return &ValuesNode{Rows: v.Rows} }
