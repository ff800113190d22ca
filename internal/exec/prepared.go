package exec

import (
	"sync/atomic"

	"repro/internal/record"
	"repro/internal/sql"
)

// template is the immutable half of a prepared statement: the compiled
// operator trees, shared by every execution. Each execution runs in an
// instance, a private clone of them. A finished execution parks its instance
// on the template and the next one picks it up, so the buffers the instance
// has grown — a page and a row per scan, probe keys, output rows, the
// sub-plan instances in its Ctx — are allocated once per statement, not once
// per execution; executions that overlap find the slot empty and clone.
type template struct {
	plan   Node     // the query, or a DML statement's source query; nil without one
	target baseScan // a DML statement's target access path; nil without one
	idle   atomic.Pointer[instance]
}

// instance is the mutable half of a prepared statement, owned by one
// execution at a time.
type instance struct {
	ctx    Ctx
	plan   Node
	target baseScan
}

// acquire returns an instance nobody else is running, bound to params.
func (t *template) acquire(params []record.Value) *instance {
	in := t.idle.Swap(nil)
	if in == nil {
		in = &instance{}
		if t.plan != nil {
			in.plan = t.plan.Clone()
		}
		if t.target != nil {
			in.target = t.target.Clone().(baseScan)
		}
	}
	in.ctx.begin(params)
	return in
}

// release parks an instance whose execution succeeded. One that failed is
// dropped instead: its operators may have stopped half-way.
func (t *template) release(in *instance) { t.idle.Store(in) }

// PreparedSelect is a compiled, re-executable query: the plan tree is an
// immutable template, and every Run executes a private instance of it, so
// one prepared query can serve any number of concurrent executions (the
// DB's shared read latch admits many at once). Parameters (? placeholders)
// bind at Run time.
type PreparedSelect struct {
	template
	layout *Layout
}

// PrepareSelect compiles a query into a reusable plan.
func (p *Planner) PrepareSelect(st *sql.SelectStmt) (*PreparedSelect, error) {
	c := &compiler{planner: p}
	plan, lay, err := p.planSelect(st, nil, c, nil)
	if err != nil {
		return nil, err
	}
	return &PreparedSelect{template: template{plan: plan}, layout: lay}, nil
}

// Columns names the result columns.
func (ps *PreparedSelect) Columns() []string {
	cols := make([]string, len(ps.layout.Cols))
	for i, c := range ps.layout.Cols {
		cols[i] = c.Name
	}
	return cols
}

// Run executes the prepared query with the given parameters, materializing
// the result rows.
func (ps *PreparedSelect) Run(params []record.Value) ([]record.Row, error) {
	in := ps.acquire(params)
	rows, err := runPlan(in.plan, &in.ctx)
	if err == nil {
		ps.release(in)
	}
	return rows, err
}
