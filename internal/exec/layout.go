// Package exec contains the planner and Volcano-style executors that turn
// parsed SQL into answers over the table layer: scans, index probes,
// nested-loop and hash joins, hash aggregation, the ROW_NUMBER window kept
// to rank 1, and the DML/MERGE drivers.
package exec

import (
	"fmt"
	"strings"

	"repro/internal/record"
)

// BoundCol is one column visible in a row flowing through the executor.
type BoundCol struct {
	Qual string // table alias ("" for synthetic columns)
	Name string
	// used, when the column comes straight from a table scan, points at its
	// entry in the scan's needed-column set (see scanLayout).
	used *bool
}

// Layout names the columns of rows produced by a plan node.
type Layout struct {
	Cols []BoundCol
}

// NewLayout builds a layout qualifying every column with qual.
func NewLayout(qual string, names []string) *Layout {
	l := &Layout{Cols: make([]BoundCol, len(names))}
	for i, n := range names {
		l.Cols[i] = BoundCol{Qual: qual, Name: n}
	}
	return l
}

// Concat returns a layout of a's columns followed by b's.
func Concat(a, b *Layout) *Layout {
	out := &Layout{Cols: make([]BoundCol, 0, len(a.Cols)+len(b.Cols))}
	out.Cols = append(out.Cols, a.Cols...)
	out.Cols = append(out.Cols, b.Cols...)
	return out
}

// Resolve finds the ordinal of qual.name (qual may be empty). It reports an
// error for ambiguous or missing columns.
func (l *Layout) Resolve(qual, name string) (int, error) {
	found := -1
	for i, c := range l.Cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if qual != "" && !strings.EqualFold(c.Qual, qual) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("exec: ambiguous column %s", name)
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("exec: unknown column %s", colName(qual, name))
	}
	return found, nil
}

// Has reports whether qual.name resolves uniquely in this layout.
func (l *Layout) Has(qual, name string) bool {
	_, err := l.Resolve(qual, name)
	return err == nil
}

// markUsed records that the plan reads column idx, so the scan producing it
// decodes it.
func (l *Layout) markUsed(idx int) {
	if u := l.Cols[idx].used; u != nil {
		*u = true
	}
}

// Env is a chain of layouts for correlated name resolution: a scan inside a
// join or subquery sees its own layout first, then each enclosing row.
type Env struct {
	Lay    *Layout
	Parent *Env
}

// resolution is the result of resolving a column through an env chain.
type resolution struct {
	levelsUp int // 0 = current layout, 1 = parent row on the ctx stack, ...
	idx      int
}

func (e *Env) resolve(qual, name string) (resolution, error) {
	level := 0
	for env := e; env != nil; env = env.Parent {
		if env.Lay != nil && env.Lay.Has(qual, name) {
			idx, err := env.Lay.Resolve(qual, name)
			if err != nil {
				return resolution{}, err
			}
			env.Lay.markUsed(idx)
			return resolution{levelsUp: level, idx: idx}, nil
		}
		level++
	}
	return resolution{}, fmt.Errorf("exec: unknown column %s", colName(qual, name))
}

// colName renders a column reference as written: name, or qual.name.
func colName(qual, name string) string {
	if qual == "" {
		return name
	}
	return qual + "." + name
}

// Ctx carries statement-scoped execution state: parameter values, the
// stack of outer rows for correlated evaluation (stack[len-1] is the row of
// the immediately enclosing env level), and the per-execution instances of
// shared sub-plans. The last part is what makes compiled plans reusable as
// prepared statements: a cached plan template holds subquery plans and
// memoizable results that must be private to one execution (fresh data
// snapshot, no cross-goroutine state), so they live here, keyed by the
// compiler-assigned sub-plan id, instead of inside the shared closures.
//
// A Ctx is itself reused from one execution of a prepared statement to the
// next (see instance in prepared.go): begin keeps the sub-plan instances,
// whose scans own page-sized buffers, and drops everything that belongs to
// the execution before.
type Ctx struct {
	Params []record.Value
	stack  []record.Row
	insts  map[int]Node
	memo   map[int]record.Value
}

// begin readies the Ctx for one more execution with the given parameters.
func (c *Ctx) begin(params []record.Value) {
	c.Params, c.stack = params, c.stack[:0]
	clear(c.memo)
}

// instance returns this execution's private clone of a shared sub-plan
// template, creating it on first use.
func (c *Ctx) instance(id int, tmpl Node) Node {
	if c.insts == nil {
		c.insts = make(map[int]Node)
	}
	n, ok := c.insts[id]
	if !ok {
		n = tmpl.Clone()
		c.insts[id] = n
	}
	return n
}

// memoLoad reads a memoized uncorrelated subquery result for this execution.
func (c *Ctx) memoLoad(id int) (record.Value, bool) {
	v, ok := c.memo[id]
	return v, ok
}

// memoStore memoizes an uncorrelated subquery result for this execution.
func (c *Ctx) memoStore(id int, v record.Value) {
	if c.memo == nil {
		c.memo = make(map[int]record.Value)
	}
	c.memo[id] = v
}

// Push makes row visible as the next outer level.
func (c *Ctx) Push(row record.Row) { c.stack = append(c.stack, row) }

// Pop removes the innermost outer row.
func (c *Ctx) Pop() { c.stack = c.stack[:len(c.stack)-1] }

// Outer returns the row levelsUp levels above the current one (levelsUp>=1).
func (c *Ctx) Outer(levelsUp int) record.Row {
	return c.stack[len(c.stack)-levelsUp]
}
