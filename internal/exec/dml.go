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
		plan, lay, err := p.planSelect(st.Select, false, nil, c, nil)
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
			in.row = sized(in.row, len(ordinals)) // Insert keeps no reference
			for _, r := range rows {
				for i, ord := range ordinals {
					in.row[ord] = r[i]
				}
				if _, err := t.Insert(in.row); err != nil {
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
			var err error
			if in.row, err = computeRow(&in.ctx, in.row, ordinals, fns, nil); err != nil {
				return Result{}, err
			}
			if _, err := t.Insert(in.row); err != nil {
				return Result{}, err
			}
		}
		return Result{RowsAffected: int64(len(rowFns))}, nil
	}), nil
}

// computeRow evaluates fns against src into dst, fns[i] going to
// ordinals[i], and returns it: dst resized to len(ordinals), reusing its
// memory.
func computeRow(ctx *Ctx, dst record.Row, ordinals []int, fns []scalarFn, src record.Row) (record.Row, error) {
	dst = sized(dst, len(ordinals))
	for i, f := range fns {
		v, err := f(ctx, src)
		if err != nil {
			return dst, err
		}
		dst[ordinals[i]] = v
	}
	return dst, nil
}

// sized returns r resized to n values, reusing its memory.
func sized(r record.Row, n int) record.Row { return slices.Grow(r[:0], n)[:n] }

// insertOrdinals maps an INSERT column list to t's ordinals. The list names
// every column of t once: a stored row holds no NULL, so a column left out
// would have no value.
func insertOrdinals(t *table.Table, cols []string) ([]int, error) {
	out := make([]int, len(cols))
	listed := make([]bool, t.Schema.Len())
	for i, cn := range cols {
		ord := t.Schema.Ordinal(cn)
		if ord < 0 {
			return nil, fmt.Errorf("exec: table %s has no column %q", t.Name, cn)
		}
		if listed[ord] {
			return nil, fmt.Errorf("exec: INSERT lists column %q twice", cn)
		}
		listed[ord], out[i] = true, ord
	}
	for ord, ok := range listed {
		if !ok {
			return nil, fmt.Errorf("exec: INSERT into %s leaves out column %q", t.Name, t.Schema.Columns[ord].Name)
		}
	}
	return out, nil
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
	var src Node
	if driver, probe := p.existsDriver(t, st.Table, conjuncts, c); probe != nil {
		src, scan = driver, probe
	}
	del := &mergeBranch{del: true}
	return newDML(src, scan, func(in *instance) (Result, error) { return mergeRows(in, t, del, nil, false) }), nil
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
	for i, conj := range conjuncts {
		ex, _ := conj.(*sql.Exists)
		if ex == nil || ex.Not {
			continue
		}
		sel := ex.Select
		if len(sel.From) != 1 || sel.From[0].Sub != nil || strings.EqualFold(sel.From[0].Name(), qual) ||
			sel.Top != nil || sel.GroupBy != nil || slices.ContainsFunc(sel.Items, opaque) ||
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

// opaque reports whether e holds something other than columns, parameters,
// literals and operators on them: a subquery or a function call.
func opaque(e sql.Expr) bool { return exprRefs(e, func(*sql.ColumnRef) bool { return false }) }

// writesThrough decides, at prepare time, whether a DML statement with
// matched branch br (nil: none) on t changes each target row through its
// scan (see mergeRows) rather than materializing its matches first. It may
// when t takes writes through a scan (table.Table.WritesThrough), scan
// reads t in clustered order (not through a secondary index, which the
// writes change), br neither deletes nor assigns a clustered-key column,
// and none of exprs —
// everything the statement evaluates while it changes t: its ON or WHERE,
// the branch condition, SET and INSERT values — is opaque, for a subquery
// could read t and then see the statement's own writes. A MERGE's or
// UPDATE ... FROM's source is not among them: mergeRows reads it whole
// before the first change.
func writesThrough(t *table.Table, scan baseScan, br *mergeBranch, exprs []sql.Expr) bool {
	if ix, ok := scan.(*IndexEqScan); !t.WritesThrough() || ok && ix.Index != nil || br != nil &&
		(br.del || slices.ContainsFunc(br.setOrds, func(ord int) bool { return slices.Contains(t.Clustered().Cols, ord) })) {
		return false
	}
	return !slices.ContainsFunc(exprs, func(e sql.Expr) bool { return e != nil && opaque(e) })
}

// setValues appends the values of sets to exprs.
func setValues(exprs []sql.Expr, sets []sql.SetClause) []sql.Expr {
	for _, s := range sets {
		exprs = append(exprs, s.Val)
	}
	return exprs
}

// PrepareUpdate compiles an UPDATE statement, including the
// PostgreSQL-style UPDATE ... FROM form the TSQL dialect uses to emulate
// MERGE: for each source row, probe the target; the first matching source
// row wins.
func (p *Planner) PrepareUpdate(st *sql.UpdateStmt) (*PreparedDML, error) {
	t, ok := p.cat.Get(st.Table)
	if !ok {
		return nil, fmt.Errorf("exec: unknown table %q", st.Table)
	}
	qual := st.Table
	c := &compiler{planner: p}
	lay, need := scanLayout(t, qual)
	env := &Env{Lay: lay}
	var srcPlan Node
	if st.From != nil {
		plan, srcLay, err := p.planFromRef(st.From, c)
		if err != nil {
			return nil, err
		}
		srcPlan, env.Parent = plan, &Env{Lay: srcLay}
	}
	scan, err := p.analyzeTargetAccess(t, qual, lay, need, env, splitConjuncts(st.Where), c)
	if err != nil {
		return nil, err
	}
	setFns, setOrds, err := p.compileSets(t, st.Sets, env, c)
	if err != nil {
		return nil, err
	}
	br := &mergeBranch{setFns: setFns, setOrds: setOrds}
	direct := writesThrough(t, scan, br, setValues([]sql.Expr{st.Where}, st.Sets))
	return newDML(srcPlan, scan, func(in *instance) (Result, error) {
		return mergeRows(in, t, br, nil, direct)
	}), nil
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
		node, _, err := p.planSelect(ref.Sub, false, nil, c, nil)
		if err != nil {
			return nil, nil, err
		}
		lay, err := derivedLayout(ref)
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

// applySets writes the updated row into dst, reusing its memory, and
// returns it; changed is false when every assigned value already equals the
// current one.
func applySets(ctx *Ctx, dst, row record.Row, fns []scalarFn, ords []int) (record.Row, bool, error) {
	dst = append(dst[:0], row...)
	changed := false
	for i, f := range fns {
		v, err := f(ctx, row) // evaluated against the OLD row, SQL semantics
		if err != nil {
			return dst, false, err
		}
		if record.Compare(dst[ords[i]], v) != 0 {
			changed = true
		}
		dst[ords[i]] = v
	}
	return dst, changed, nil
}

// mergeBranch is the compiled WHEN MATCHED branch; del makes its action
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

	var br *mergeBranch
	exprs := []sql.Expr{st.On}
	if m := st.Matched; m != nil {
		br = &mergeBranch{}
		if m.And != nil {
			if br.cond, err = c.compileExpr(m.And, targetEnv, nil); err != nil {
				return nil, err
			}
		}
		if br.setFns, br.setOrds, err = p.compileSets(t, m.Sets, targetEnv, c); err != nil {
			return nil, err
		}
		exprs = setValues(append(exprs, m.And), m.Sets)
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
		exprs = append(exprs, nm.Vals...)
	}
	direct := writesThrough(t, scan, br, exprs)
	return newDML(srcPlan, scan, func(in *instance) (Result, error) {
		return mergeRows(in, t, br, ins, direct)
	}), nil
}

// mergeRows drives MERGE, UPDATE and DELETE: every source row — all read
// before the first change, since the source may be a query over t; an
// UPDATE without FROM and a DELETE with no EXISTS driver have one, empty —
// probes the target through in.target, each target row takes br (nil:
// none) when its condition holds, and a source row that finds no target row
// inserts when ins says so. A row that was there before the statement
// changes at most once (touched, by location); a row an earlier source row
// inserted is met again, so a later source row changes it too. Which source
// row applies to a target row two of them reach is the source's order: with
// TOP n over more than n rows and a rank-1 tie between rows that differ, one
// of the three outcomes the dialect leaves open. An update that moves a
// row (a clustered key or a heap RID that changes) marks the new location
// touched too, so no later source row meets the row again.
//
// A direct statement (writesThrough) writes each change through the target
// scan's iterator, on the page the scan read; any other materializes a
// probe's matches first (eachTarget) and writes through Table.Update and
// Table.Insert. Deletes are collected and applied after the last probe.
func mergeRows(in *instance, t *table.Table, br *mergeBranch, ins *mergeInsert, direct bool) (Result, error) {
	ctx := &in.ctx
	srcRows := []record.Row{nil}
	if in.plan != nil {
		var err error
		if srcRows, err = runPlan(in.plan, ctx); err != nil {
			return Result{}, err
		}
	}
	scan := in.target.base()
	var touched map[string]bool // one probe meets a row once: only a second can meet it again
	if len(srcRows) > 1 {
		touched = make(map[string]bool)
	}
	var matches, dels []targetMatch
	var n int64
	change := func(m targetMatch) error {
		if br == nil {
			return nil
		}
		var lk string
		if touched != nil {
			if lk = locKey(m.loc); touched[lk] {
				return nil
			}
		}
		if br.cond != nil {
			if v, err := br.cond(ctx, m.row); err != nil || !v.Truthy() {
				return err
			}
		}
		if touched != nil {
			touched[lk] = true
		}
		n++
		if br.del {
			dels = append(dels, m)
			return nil
		}
		var changed bool
		var err error
		if in.row, changed, err = applySets(ctx, in.row, m.row, br.setFns, br.setOrds); err != nil || !changed {
			return err
		}
		if direct {
			return scan.it.Overwrite(in.row)
		}
		loc, err := t.Update(m.loc, m.row, in.row)
		if touched != nil && err == nil {
			touched[locKey(loc)] = true
		}
		return err
	}
	for _, srcRow := range srcRows {
		ctx.Push(srcRow)
		found, err := eachTarget(ctx, in.target, direct, &matches, change)
		if err == nil && !found && ins != nil {
			n++
			if in.row, err = computeRow(ctx, in.row, ins.ords, ins.fns, srcRow); err == nil {
				if direct && !scan.empty {
					err = scan.it.Insert(in.row)
				} else {
					_, err = t.Insert(in.row)
				}
			}
		}
		ctx.Pop()
		if err != nil {
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

// eachTarget runs change on every row scan yields and reports whether it
// yielded one. With direct, change runs while the scan stands on the row,
// given every column of it decoded in the scan's buffer and its clustered
// key in the scan's leaf copy: the write goes through the scan's iterator.
// Otherwise the rows are materialized first (findTargets), with locations of
// their own, and change runs on each once the scan is done.
func eachTarget(ctx *Ctx, scan baseScan, direct bool, buf *[]targetMatch, change func(targetMatch) error) (bool, error) {
	if !direct {
		ms, err := findTargets(ctx, scan, *buf)
		for _, m := range ms {
			if err == nil {
				err = change(m)
			}
		}
		*buf = ms
		return len(ms) > 0, err
	}
	if err := scan.Open(ctx); err != nil {
		return false, err
	}
	defer scan.Close()
	found := false
	for {
		r, err := scan.Next(ctx)
		if err != nil || r == nil {
			return found, err
		}
		found = true
		it := &scan.base().it
		if r, err = it.FullRow(); err == nil {
			err = change(targetMatch{loc: table.Loc{Key: it.Key()}, row: r})
		}
		if err != nil {
			return found, err
		}
	}
}
