package exec

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/record"
	"repro/internal/sql"
	"repro/internal/table"
)

// Result reports the outcome of a DML statement — the engine's SQLCA. The
// paper's drivers read "the number of affected tuples from SQL
// communication area of database (SQLCA)" to detect termination, so every
// writer returns an exact affected-row count.
type Result struct {
	RowsAffected int64
}

// PreparedDML is a compiled, re-executable mutating statement. Preparation
// does all parsing-adjacent work once — target resolution, index-probe
// selection, expression compilation — and Run binds fresh parameter values.
// The compiled state is immutable; per-execution state (the source query's
// and the target scan's operator instances, sub-plan instances, memoized
// subqueries) lives in the instance Run executes in, so one PreparedDML may
// be shared by a plan cache.
type PreparedDML struct {
	template
	run func(in *instance) (Result, error)
}

// Run executes the prepared statement with the given parameters.
func (p *PreparedDML) Run(params []record.Value) (Result, error) {
	in := p.acquire(params)
	res, err := p.run(in)
	if err == nil {
		p.release(in)
	}
	return res, err
}

// targetMatch is one target row addressed by a DML statement.
type targetMatch struct {
	loc table.Loc
	row record.Row
}

// analyzeTargetAccess turns conjuncts into the access path of a DML target:
// an index probe on t where equality conjuncts allow one, else a scan, with
// the rest on it as a SELECT's would be (attachResidualsToScan). env must be
// the env in which the conjuncts are evaluated per candidate target row
// (target layout at level 0).
func (p *Planner) analyzeTargetAccess(t *table.Table, qual string, lay *Layout, need []bool, env *Env, conjuncts []sql.Expr, c *compiler) (baseScan, error) {
	remaining := append([]sql.Expr(nil), conjuncts...)
	scan := p.chooseAccessPath(t, qual, lay, need, env, &remaining, c, nil)
	err := p.attachResidualsToScan(scan, env, &remaining, c, nil)
	if err == nil && len(remaining) > 0 { // a conjunct that does not compile: say why
		_, err = c.compileExpr(andAll(remaining), env, nil)
	}
	return scan, err
}

// findTargets appends the target rows scan yields to out[:0]. The scan reads
// only the columns its residual needs into a buffer it overwrites, so each
// match is materialized — every column (Table.Update and Table.Delete
// re-encode the row and its index keys) and the location, in memory of their
// own — and the whole list is built before the caller mutates the table:
// that keeps the scan stable, and a statement whose source reads its own
// target sees the table as it was.
func findTargets(ctx *Ctx, scan baseScan, out []targetMatch) ([]targetMatch, error) {
	out = out[:0]
	if err := scan.Open(ctx); err != nil {
		return nil, err
	}
	defer scan.Close()
	for {
		r, err := scan.Next(ctx)
		if err != nil || r == nil {
			return out, err
		}
		loc, row, err := scan.base().it.Materialize()
		if err != nil {
			return nil, err
		}
		out = append(out, targetMatch{loc: loc, row: row})
	}
}

// newDML assembles a prepared statement from its source query (nil without
// one), its target access path (nil for INSERT) and its driver.
func newDML(src Node, target baseScan, run func(in *instance) (Result, error)) *PreparedDML {
	return &PreparedDML{template: template{plan: src, target: target}, run: run}
}

// PrepareInsert compiles an INSERT statement.
func (p *Planner) PrepareInsert(st *sql.InsertStmt) (*PreparedDML, error) {
	t, ok := p.cat.Get(st.Table)
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %q", st.Table)
	}
	ordinals, err := insertOrdinals(t, st.Cols)
	if err != nil {
		return nil, err
	}
	c := &compiler{planner: p}
	if st.Select != nil {
		plan, lay, err := p.planSelect(st.Select, nil, c, nil)
		if err != nil {
			return nil, err
		}
		if len(lay.Cols) != len(ordinals) {
			return nil, fmt.Errorf("exec: INSERT expects %d columns, SELECT returns %d", len(ordinals), len(lay.Cols))
		}
		return newDML(plan, nil, func(in *instance) (Result, error) {
			// Materialized before the first insert: the query may read t.
			rows, err := runPlan(in.plan, &in.ctx)
			if err != nil {
				return Result{}, err
			}
			for _, r := range rows {
				if _, err := t.Insert(buildInsertRow(t, ordinals, r)); err != nil {
					return Result{}, err
				}
			}
			return Result{RowsAffected: int64(len(rows))}, nil
		}), nil
	}
	env := &Env{Lay: &Layout{}}
	rowFns := make([][]scalarFn, len(st.Rows))
	for ri, valueExprs := range st.Rows {
		if len(valueExprs) != len(ordinals) {
			return nil, fmt.Errorf("exec: INSERT expects %d values, got %d", len(ordinals), len(valueExprs))
		}
		fns := make([]scalarFn, len(valueExprs))
		for i, e := range valueExprs {
			f, err := c.compileExpr(e, env, nil)
			if err != nil {
				return nil, err
			}
			fns[i] = f
		}
		rowFns[ri] = fns
	}
	return newDML(nil, nil, func(in *instance) (Result, error) {
		for _, fns := range rowFns {
			if err := insertComputed(&in.ctx, t, ordinals, fns, nil); err != nil {
				return Result{}, err
			}
		}
		return Result{RowsAffected: int64(len(rowFns))}, nil
	}), nil
}

// insertComputed inserts the row whose listed columns are fns evaluated
// against src.
func insertComputed(ctx *Ctx, t *table.Table, ordinals []int, fns []scalarFn, src record.Row) error {
	vals := make(record.Row, len(fns))
	for i, f := range fns {
		v, err := f(ctx, src)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	_, err := t.Insert(buildInsertRow(t, ordinals, vals))
	return err
}

func insertOrdinals(t *table.Table, cols []string) ([]int, error) {
	out := make([]int, len(cols))
	for i, cn := range cols {
		ord := t.Schema.Ordinal(cn)
		if ord < 0 {
			return nil, fmt.Errorf("exec: table %s has no column %q", t.Name, cn)
		}
		out[i] = ord
	}
	return out, nil
}

func buildInsertRow(t *table.Table, ordinals []int, vals record.Row) record.Row {
	row := make(record.Row, t.Schema.Len())
	for i := range row {
		row[i] = record.Value{Null: true}
	}
	for i, ord := range ordinals {
		row[ord] = vals[i]
	}
	return row
}

// PrepareDelete compiles a DELETE statement.
func (p *Planner) PrepareDelete(st *sql.DeleteStmt) (*PreparedDML, error) {
	t, ok := p.cat.Get(st.Table)
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %q", st.Table)
	}
	if st.Where == nil {
		// Fast path: full truncate.
		return newDML(nil, nil, func(*instance) (Result, error) {
			n := int64(t.RowCount())
			if err := t.Truncate(); err != nil {
				return Result{}, err
			}
			return Result{RowsAffected: n}, nil
		}), nil
	}
	c := &compiler{planner: p}
	lay, need := scanLayout(t, st.Table)
	conjuncts := splitConjuncts(st.Where)
	// The plan as written is compiled first, whichever runs: it is what
	// reports a statement that does not compile.
	scan, err := p.analyzeTargetAccess(t, st.Table, lay, need, &Env{Lay: lay}, conjuncts, c)
	if err != nil {
		return nil, err
	}
	if src, probe := p.existsDriver(t, st.Table, conjuncts, c); probe != nil {
		del := []mergeBranch{{del: true}}
		return newDML(src, probe, func(in *instance) (Result, error) { return mergeRows(in, t, del, nil) }), nil
	}
	return newDML(nil, scan, func(in *instance) (Result, error) {
		matches, err := findTargets(&in.ctx, in.target, nil)
		if err != nil {
			return Result{}, err
		}
		for _, m := range matches {
			if err := t.Delete(m.loc, m.row); err != nil {
				return Result{}, err
			}
		}
		return Result{RowsAffected: int64(len(matches))}, nil
	}), nil
}

// existsDriver turns DELETE FROM t WHERE EXISTS (SELECT ... FROM m WHERE corr)
// round: when the subquery reads one base table and yields a row per row of
// it that passes (plain items, no TOP or grouping), and equalities of corr
// with m's columns cover an index prefix of t, the statement runs as "for
// each row of m, probe t" — the UPDATE ... FROM plan with a delete action —
// and costs what m holds, not what t holds. The target row takes the scope
// m's row had, so corr's column references must be qualified. A nil probe
// says the rule does not apply: the caller keeps its scan of t.
func (p *Planner) existsDriver(t *table.Table, qual string, conjuncts []sql.Expr, c *compiler) (Node, baseScan) {
	opaque := func(e sql.Expr) bool { return exprRefs(e, func(*sql.ColumnRef) bool { return false }) }
	for i, conj := range conjuncts {
		ex, _ := conj.(*sql.Exists)
		if ex == nil || ex.Not {
			continue
		}
		sel := ex.Select
		if len(sel.From) != 1 || sel.From[0].Sub != nil || strings.EqualFold(sel.From[0].Name(), qual) ||
			sel.Top != nil || sel.GroupBy != nil || sel.Having != nil || slices.ContainsFunc(sel.Items, opaque) ||
			exprRefs(sel.Where, func(cr *sql.ColumnRef) bool { return cr.Table == "" }) {
			continue
		}
		rest, correlated := splitConjuncts(sel.Where), false
		src, srcLay, err := p.planTableAccess(sel.From[0], &rest, nil, c, nil) // takes m's own conjuncts
		if err != nil {
			continue
		}
		lay, need := scanLayout(t, qual)
		env := &Env{Lay: lay, Parent: &Env{Lay: srcLay}}
		probe, ok := p.chooseAccessPath(t, qual, lay, need, env, &rest, c, &correlated).(*IndexEqScan)
		rest = append(append(rest, conjuncts[:i]...), conjuncts[i+1:]...)
		if ok && correlated && p.attachResidualsToScan(probe, env, &rest, c, nil) == nil && len(rest) == 0 {
			return src, probe
		}
	}
	return nil, nil
}

// PrepareUpdate compiles an UPDATE statement, including the
// PostgreSQL-style UPDATE ... FROM form the TSQL dialect uses to emulate
// MERGE.
func (p *Planner) PrepareUpdate(st *sql.UpdateStmt) (*PreparedDML, error) {
	t, ok := p.cat.Get(st.Table)
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %q", st.Table)
	}
	qual := st.Table
	c := &compiler{planner: p}
	lay, need := scanLayout(t, qual)

	if st.From == nil {
		env := &Env{Lay: lay}
		scan, err := p.analyzeTargetAccess(t, qual, lay, need, env, splitConjuncts(st.Where), c)
		if err != nil {
			return nil, err
		}
		setFns, setOrds, err := p.compileSets(t, st.Sets, env, c)
		if err != nil {
			return nil, err
		}
		return newDML(nil, scan, func(in *instance) (Result, error) {
			matches, err := findTargets(&in.ctx, in.target, nil)
			if err != nil {
				return Result{}, err
			}
			for _, m := range matches {
				if err := updateMatch(&in.ctx, t, m, setFns, setOrds); err != nil {
					return Result{}, err
				}
			}
			// SQL counts matched rows even if values are identical.
			return Result{RowsAffected: int64(len(matches))}, nil
		}), nil
	}

	// UPDATE ... FROM source: for each source row, probe the target; the
	// first matching source row wins.
	srcPlan, srcLay, err := p.planFromRef(st.From, c)
	if err != nil {
		return nil, err
	}
	targetEnv := &Env{Lay: lay, Parent: &Env{Lay: srcLay}}
	scan, err := p.analyzeTargetAccess(t, qual, lay, need, targetEnv, splitConjuncts(st.Where), c)
	if err != nil {
		return nil, err
	}
	setFns, setOrds, err := p.compileSets(t, st.Sets, targetEnv, c)
	if err != nil {
		return nil, err
	}
	branches := []mergeBranch{{setFns: setFns, setOrds: setOrds}}
	return newDML(srcPlan, scan, func(in *instance) (Result, error) {
		return mergeRows(in, t, branches, nil)
	}), nil
}

// updateMatch applies SET clauses to one materialized target row.
func updateMatch(ctx *Ctx, t *table.Table, m targetMatch, setFns []scalarFn, setOrds []int) error {
	newRow, changed, err := applySets(ctx, m.row, setFns, setOrds)
	if err != nil || !changed {
		return err
	}
	_, err = t.Update(m.loc, m.row, newRow)
	return err
}

func locKey(l table.Loc) string {
	if l.Key != nil {
		return "k" + string(l.Key)
	}
	return fmt.Sprintf("r%d.%d", l.RID.Page, l.RID.Slot)
}

// planFromRef plans a table or derived-table reference standalone.
func (p *Planner) planFromRef(ref *sql.TableRef, c *compiler) (Node, *Layout, error) {
	if ref.Sub != nil {
		node, subLay, err := p.planSelect(ref.Sub, nil, c, nil)
		if err != nil {
			return nil, nil, err
		}
		lay, err := derivedLayout(ref, subLay)
		return node, lay, err
	}
	t, ok := p.cat.Get(ref.Table)
	if !ok {
		return nil, nil, fmt.Errorf("exec: unknown table %q", ref.Table)
	}
	lay, need := scanLayout(t, ref.Name())
	return newSeqScan(t, need), lay, nil
}

// compileSets compiles SET clauses; the env's level-0 row is the target row
// (level 1 the source row for UPDATE-FROM / MERGE).
func (p *Planner) compileSets(t *table.Table, sets []sql.SetClause, env *Env, c *compiler) ([]scalarFn, []int, error) {
	fns := make([]scalarFn, len(sets))
	ords := make([]int, len(sets))
	for i, s := range sets {
		ord := t.Schema.Ordinal(s.Col)
		if ord < 0 {
			return nil, nil, fmt.Errorf("exec: table %s has no column %q", t.Name, s.Col)
		}
		f, err := c.compileExpr(s.Val, env, nil)
		if err != nil {
			return nil, nil, err
		}
		fns[i] = f
		ords[i] = ord
	}
	return fns, ords, nil
}

// applySets computes the updated row; changed is false when every assigned
// value already equals the current one.
func applySets(ctx *Ctx, row record.Row, fns []scalarFn, ords []int) (record.Row, bool, error) {
	newRow := row.Clone()
	changed := false
	for i, f := range fns {
		v, err := f(ctx, row) // evaluated against the OLD row, SQL semantics
		if err != nil {
			return nil, false, err
		}
		if record.Compare(newRow[ords[i]], v) != 0 {
			changed = true
		}
		newRow[ords[i]] = v
	}
	return newRow, changed, nil
}

// mergeBranch is one compiled WHEN MATCHED branch; del makes its action
// deleting the row (the EXISTS-driven DELETE) instead of updating it.
type mergeBranch struct {
	cond    scalarFn
	setFns  []scalarFn
	setOrds []int
	del     bool
}

// mergeInsert is a compiled WHEN NOT MATCHED branch.
type mergeInsert struct {
	fns  []scalarFn
	ords []int
}

// PrepareMerge compiles a MERGE statement: for every source row, probe the
// target by the ON condition, then apply the first applicable WHEN branch.
// Affected rows = updates + inserts, matching the SQLCA counter
// the paper's Algorithm 1/2 read for termination.
func (p *Planner) PrepareMerge(st *sql.MergeStmt) (*PreparedDML, error) {
	t, ok := p.cat.Get(st.Target)
	if !ok {
		return nil, fmt.Errorf("exec: unknown target table %q", st.Target)
	}
	qual := st.TargetAlias
	if qual == "" {
		qual = st.Target
	}
	c := &compiler{planner: p}
	srcPlan, srcLay, err := p.planFromRef(st.Source, c)
	if err != nil {
		return nil, err
	}
	srcEnv := &Env{Lay: srcLay}
	targetLay, need := scanLayout(t, qual)
	targetEnv := &Env{Lay: targetLay, Parent: srcEnv}

	scan, err := p.analyzeTargetAccess(t, qual, targetLay, need, targetEnv, splitConjuncts(st.On), c)
	if err != nil {
		return nil, err
	}

	branches := make([]mergeBranch, len(st.Matched))
	for i, m := range st.Matched {
		var mb mergeBranch
		if m.And != nil {
			f, err := c.compileExpr(m.And, targetEnv, nil)
			if err != nil {
				return nil, err
			}
			mb.cond = f
		}
		if mb.setFns, mb.setOrds, err = p.compileSets(t, m.Sets, targetEnv, c); err != nil {
			return nil, err
		}
		branches[i] = mb
	}

	var ins *mergeInsert
	if nm := st.NotMatched; nm != nil {
		ins = &mergeInsert{}
		if ins.ords, err = insertOrdinals(t, nm.Cols); err != nil {
			return nil, err
		}
		if len(nm.Vals) != len(ins.ords) {
			return nil, fmt.Errorf("exec: MERGE INSERT expects %d values, got %d", len(ins.ords), len(nm.Vals))
		}
		for _, e := range nm.Vals {
			f, err := c.compileExpr(e, srcEnv, nil)
			if err != nil {
				return nil, err
			}
			ins.fns = append(ins.fns, f)
		}
	}
	return newDML(srcPlan, scan, func(in *instance) (Result, error) {
		return mergeRows(in, t, branches, ins)
	}), nil
}

// mergeRows drives MERGE and UPDATE ... FROM: every source row — all read
// before the first change, since the source may be a query over t — probes
// the target through in.target, and each target row takes the first branch
// whose condition holds, once per statement. Deletes are collected and
// applied after the last probe.
func mergeRows(in *instance, t *table.Table, branches []mergeBranch, ins *mergeInsert) (Result, error) {
	ctx := &in.ctx
	srcRows, err := runPlan(in.plan, ctx)
	if err != nil {
		return Result{}, err
	}
	touched := make(map[string]bool)
	var matches, dels []targetMatch
	var n int64
	mergeOne := func(srcRow record.Row) error {
		ctx.Push(srcRow)
		defer ctx.Pop()
		if matches, err = findTargets(ctx, in.target, matches); err != nil {
			return err
		}
		if len(matches) == 0 && ins != nil {
			n++
			return insertComputed(ctx, t, ins.ords, ins.fns, srcRow)
		}
		for _, m := range matches {
			lk := locKey(m.loc)
			if touched[lk] {
				continue
			}
			for _, br := range branches {
				if br.cond != nil {
					v, err := br.cond(ctx, m.row)
					if err != nil {
						return err
					}
					if !v.Truthy() {
						continue
					}
				}
				touched[lk] = true
				n++
				if br.del {
					dels = append(dels, m)
				} else if err := updateMatch(ctx, t, m, br.setFns, br.setOrds); err != nil {
					return err
				}
				break
			}
		}
		return nil
	}
	for _, srcRow := range srcRows {
		if err := mergeOne(srcRow); err != nil {
			return Result{}, err
		}
	}
	for _, m := range dels {
		if err := t.Delete(m.loc, m.row); err != nil {
			return Result{}, err
		}
	}
	return Result{RowsAffected: n}, nil
}
