package exec

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/record"
	"repro/internal/sql"
	"repro/internal/table"
)

// Planner translates parsed statements into executable plans against a
// catalog. Planning is rule-based: equality predicates on index prefixes
// become index probes (index-nested-loop joins when the probe references
// the outer side), remaining equi-joins become hash joins, and everything
// else falls back to filtered scans — the same menu a 2011-era RDBMS would
// pick from for the paper's statements.
type Planner struct {
	cat *table.Catalog
}

// NewPlanner creates a planner over cat.
func NewPlanner(cat *table.Catalog) *Planner { return &Planner{cat: cat} }

// splitConjuncts flattens a WHERE tree into AND-ed conjuncts.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sql.Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

func andAll(conjs []sql.Expr) sql.Expr {
	var out sql.Expr
	for _, c := range conjs {
		if out == nil {
			out = c
		} else {
			out = &sql.Binary{Op: "AND", L: out, R: c}
		}
	}
	return out
}

// scanLayout names t's columns under qual for a scan of t and returns, with
// the layout, the scan's needed-column set. Each layout column points at its
// entry in the set, and compiling a reference to the column — in a residual,
// a projection, a join key, a SET clause, from any query block that can see
// it — sets that entry, so the set is complete when the statement is
// compiled and the scan decodes nothing the plan does not read.
func scanLayout(t *table.Table, qual string) (*Layout, []bool) {
	need := make([]bool, t.Schema.Len())
	lay := &Layout{Cols: make([]BoundCol, len(need))}
	for i, c := range t.Schema.Columns {
		lay.Cols[i] = BoundCol{Qual: qual, Name: c.Name, used: &need[i]}
	}
	return lay, need
}

// planSelect plans one query block. outerEnv is the enclosing environment
// for correlated references; usedOuter (when non-nil) is set if the block
// references it.
func (p *Planner) planSelect(st *sql.SelectStmt, outerEnv *Env, c *compiler, usedOuter *bool) (Node, *Layout, error) {
	conjuncts := splitConjuncts(st.Where)
	var cur Node
	var curLay *Layout

	if len(st.From) == 0 {
		cur = &ValuesNode{Rows: []record.Row{{}}}
		curLay = &Layout{}
	}
	for i, ref := range st.From {
		var err error
		if i == 0 {
			cur, curLay, err = p.planTableAccess(ref, &conjuncts, outerEnv, c, usedOuter)
		} else {
			cur, curLay, err = p.planJoin(cur, curLay, ref, &conjuncts, outerEnv, c, usedOuter)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	curEnv := &Env{Lay: curLay, Parent: outerEnv}

	// Leftover conjuncts become a post-join filter.
	if len(conjuncts) > 0 {
		pred, err := c.compileExpr(andAll(conjuncts), curEnv, usedOuter)
		if err != nil {
			return nil, nil, err
		}
		cur = &Filter{Input: cur, Pred: pred}
	}

	items := st.Items
	needAgg := len(st.GroupBy) > 0 || hasCall(st.Having, false)
	needWin := false
	for _, it := range items {
		needAgg = needAgg || hasCall(it, false)
		needWin = needWin || hasCall(it, true)
	}
	var err error
	if needAgg {
		cur, curEnv, items, err = p.planAggregate(st, cur, curEnv, c, usedOuter)
	} else if needWin {
		cur, curEnv, items, err = p.planWindow(items, cur, curEnv, curLay, c, usedOuter)
	}
	if err != nil {
		return nil, nil, err
	}

	if st.Top != nil {
		f, err := c.compileExpr(st.Top, &Env{Lay: &Layout{}, Parent: outerEnv}, usedOuter)
		if err != nil {
			return nil, nil, err
		}
		cur = &Limit{Input: cur, N: f}
	}

	// Projection. Output names come from the ORIGINAL select items (the
	// aggregate/window rewrite replaces expressions with internal $agg/$win
	// references whose names must not leak to clients).
	fns := make([]scalarFn, len(items))
	outLay := &Layout{Cols: make([]BoundCol, len(items))}
	anon := 0
	for i, it := range items {
		if fns[i], err = c.compileExpr(it, curEnv, usedOuter); err != nil {
			return nil, nil, err
		}
		switch orig := st.Items[i].(type) {
		case *sql.ColumnRef:
			outLay.Cols[i].Name = orig.Name
		case *sql.FuncCall:
			outLay.Cols[i].Name = strings.ToLower(orig.Name)
		default:
			outLay.Cols[i].Name = fmt.Sprintf("_c%d", anon)
			anon++
		}
	}
	cur = &Project{Input: cur, Fns: fns}

	if st.Distinct {
		cur = &Distinct{Input: cur}
	}
	return cur, outLay, nil
}

// planTableAccess plans a base-table or derived-table reference with its
// applicable conjuncts. accEnv is what the table can see besides itself
// (the accumulated join row and/or enclosing query rows).
func (p *Planner) planTableAccess(ref *sql.TableRef, remaining *[]sql.Expr, accEnv *Env, c *compiler, usedOuter *bool) (Node, *Layout, error) {
	if ref.Sub != nil {
		node, subLay, err := p.planSelect(ref.Sub, accEnv, c, usedOuter)
		if err != nil {
			return nil, nil, err
		}
		lay, err := derivedLayout(ref, subLay)
		if err != nil {
			return nil, nil, err
		}
		// Apply conjuncts that compile against the derived layout.
		node, err = p.attachResiduals(node, lay, remaining, accEnv, c, usedOuter)
		if err != nil {
			return nil, nil, err
		}
		return node, lay, nil
	}
	t, ok := p.cat.Get(ref.Table)
	if !ok {
		return nil, nil, fmt.Errorf("exec: unknown table %q", ref.Table)
	}
	lay, need := scanLayout(t, ref.Name())
	tableEnv := &Env{Lay: lay, Parent: accEnv}

	// Try to find an index probe among the remaining conjuncts.
	node := p.chooseAccessPath(t, ref.Name(), lay, need, tableEnv, remaining, c, usedOuter)
	if err := p.attachResidualsToScan(node, tableEnv, remaining, c, usedOuter); err != nil {
		return nil, nil, err
	}
	return node, lay, nil
}

// derivedLayout renames a subquery's output columns per the alias list.
func derivedLayout(ref *sql.TableRef, subLay *Layout) (*Layout, error) {
	names := make([]string, len(subLay.Cols))
	for i, col := range subLay.Cols {
		names[i] = col.Name
	}
	if len(ref.SubCols) > 0 {
		if len(ref.SubCols) != len(names) {
			return nil, fmt.Errorf("exec: derived table %s lists %d columns, query returns %d",
				ref.Name(), len(ref.SubCols), len(names))
		}
		names = ref.SubCols
	}
	return NewLayout(ref.Name(), names), nil
}

// chooseAccessPath selects an index probe if some equality conjuncts cover
// an index prefix with expressions that do not depend on the table itself.
// Preference: clustered, then unique secondary, then other secondary.
func (p *Planner) chooseAccessPath(t *table.Table, qual string, lay *Layout, need []bool, tableEnv *Env, remaining *[]sql.Expr, c *compiler, usedOuter *bool) baseScan {
	type candidate struct {
		ix   *table.Index // nil = clustered
		cols []int
		pref int
	}
	var cands []candidate
	if clu := t.Clustered(); clu != nil {
		cands = append(cands, candidate{ix: nil, cols: clu.Cols, pref: 0})
	}
	for _, ix := range t.Secondary {
		pref := 2
		if ix.Unique {
			pref = 1
		}
		cands = append(cands, candidate{ix: ix, cols: ix.Cols, pref: pref})
	}
	var best *candidate
	var bestFns []scalarFn
	var bestUsed []int
	bestLen, bestPref := 0, 99
	for ci := range cands {
		cand := &cands[ci]
		fns, used := p.matchIndexPrefix(t, qual, lay, tableEnv, cand.cols, *remaining, c, usedOuter)
		if len(fns) == 0 {
			continue
		}
		if len(fns) > bestLen || (len(fns) == bestLen && cand.pref < bestPref) {
			best, bestFns, bestUsed, bestLen, bestPref = cand, fns, used, len(fns), cand.pref
		}
	}
	if best == nil {
		return newSeqScan(t, need)
	}
	removeConjuncts(remaining, bestUsed)
	return &IndexEqScan{tableScan: tableScan{Table: t, Need: need}, Index: best.ix, KeyFns: bestFns}
}

func newSeqScan(t *table.Table, need []bool) *SeqScan {
	return &SeqScan{tableScan{Table: t, Need: need}}
}

// matchIndexPrefix finds equality conjuncts `col = expr` covering a prefix
// of idxCols where expr does not reference the table. Returns the probe
// functions and the indices of the consumed conjuncts.
func (p *Planner) matchIndexPrefix(t *table.Table, qual string, lay *Layout, tableEnv *Env, idxCols []int, conjuncts []sql.Expr, c *compiler, usedOuter *bool) ([]scalarFn, []int) {
	var fns []scalarFn
	var used []int
	for _, colOrd := range idxCols {
		colName := t.Schema.Columns[colOrd].Name
		found := false
		for ci, conj := range conjuncts {
			if intsContain(used, ci) {
				continue
			}
			b, ok := conj.(*sql.Binary)
			if !ok || b.Op != "=" {
				continue
			}
			var probe sql.Expr
			if isColRefTo(b.L, qual, colName, lay) && !exprRefsQual(b.R, qual, lay) {
				probe = b.R
			} else if isColRefTo(b.R, qual, colName, lay) && !exprRefsQual(b.L, qual, lay) {
				probe = b.L
			} else {
				continue
			}
			fn, err := c.compileExpr(probe, tableEnv, usedOuter)
			if err != nil {
				continue
			}
			fns = append(fns, fn)
			used = append(used, ci)
			found = true
			break
		}
		if !found {
			break
		}
	}
	return fns, used
}

func isColRefTo(e sql.Expr, qual, name string, lay *Layout) bool {
	cr, ok := e.(*sql.ColumnRef)
	if !ok {
		return false
	}
	if !strings.EqualFold(cr.Name, name) {
		return false
	}
	if cr.Table == "" {
		return lay.Has("", cr.Name)
	}
	return strings.EqualFold(cr.Table, qual)
}

func intsContain(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func removeConjuncts(remaining *[]sql.Expr, used []int) {
	if len(used) == 0 {
		return
	}
	var out []sql.Expr
	for i, e := range *remaining {
		if !intsContain(used, i) {
			out = append(out, e)
		}
	}
	*remaining = out
}

// attachResidualsToScan moves every remaining conjunct that compiles in
// tableEnv onto the scan — SELECT scans and DML targets alike: a comparison
// of one of the table's columns with something that does not read the table
// as a pushed predicate, the rest into the residual filter.
func (p *Planner) attachResidualsToScan(scan baseScan, tableEnv *Env, remaining *[]sql.Expr, c *compiler, usedOuter *bool) error {
	s := scan.base()
	var keep []sql.Expr
	var resid []sql.Expr
	for _, conj := range *remaining {
		if pp, ok := c.pushable(conj, s.Table, tableEnv, usedOuter); ok {
			s.Pushed = append(s.Pushed, pp)
		} else if _, err := c.compileExpr(conj, tableEnv, usedOuter); err != nil {
			keep = append(keep, conj)
		} else {
			resid = append(resid, conj)
		}
	}
	*remaining = keep
	if len(resid) == 0 {
		return nil
	}
	pred, err := c.compileExpr(andAll(resid), tableEnv, usedOuter)
	s.Residual = pred
	return err
}

// pushable compiles conj as a pushed predicate of a scan of t, if it is one:
// `col <cmp> operand` or `operand <cmp> col` (the satisfied set then swaps
// less and greater), col resolved in t's layout without marking it used — the
// scan compares its bytes and does not decode it. The operand is compiled
// against a stand-in for that layout, which tells whether it reads the table:
// what leaves the stand-in untouched (literals, parameters, outer rows'
// columns, subqueries over them) can be evaluated before any row of t exists.
func (c *compiler) pushable(conj sql.Expr, t *table.Table, tableEnv *Env, usedOuter *bool) (pushedPred, bool) {
	b, _ := conj.(*sql.Binary)
	if b == nil || cmpSat[b.Op] == 0 {
		return pushedPred{}, false
	}
	sat := cmpSat[b.Op]
	for _, side := range [2][2]sql.Expr{{b.L, b.R}, {b.R, b.L}} {
		if cr, ok := side[0].(*sql.ColumnRef); ok && tableEnv.Lay.Has(cr.Table, cr.Name) {
			standIn, read := scanLayout(t, tableEnv.Lay.Cols[0].Qual)
			val, err := c.compileExpr(side[1], &Env{Lay: standIn, Parent: tableEnv.Parent}, usedOuter)
			if err == nil && !slices.Contains(read, true) {
				col, _ := tableEnv.Lay.Resolve(cr.Table, cr.Name)
				return pushedPred{col: col, sat: sat, val: val}, true
			}
		}
		sat = sat&2 | sat>>2 | sat&1<<2
	}
	return pushedPred{}, false
}

// attachResiduals wraps a non-scan node with a filter for conjuncts that
// compile against its layout.
func (p *Planner) attachResiduals(node Node, lay *Layout, remaining *[]sql.Expr, accEnv *Env, c *compiler, usedOuter *bool) (Node, error) {
	env := &Env{Lay: lay, Parent: accEnv}
	var keep []sql.Expr
	var resid []sql.Expr
	for _, conj := range *remaining {
		if _, err := c.compileExpr(conj, env, usedOuter); err != nil {
			keep = append(keep, conj)
			continue
		}
		resid = append(resid, conj)
	}
	*remaining = keep
	if len(resid) == 0 {
		return node, nil
	}
	pred, err := c.compileExpr(andAll(resid), env, usedOuter)
	if err != nil {
		return nil, err
	}
	return &Filter{Input: node, Pred: pred}, nil
}

// planJoin extends the accumulated left-deep plan with one more table (the
// grammar admits a derived table only as the first FROM entry).
func (p *Planner) planJoin(acc Node, accLay *Layout, ref *sql.TableRef, remaining *[]sql.Expr, outerEnv *Env, c *compiler, usedOuter *bool) (Node, *Layout, error) {
	accEnv := &Env{Lay: accLay, Parent: outerEnv}
	t, ok := p.cat.Get(ref.Table)
	if !ok {
		return nil, nil, fmt.Errorf("exec: unknown table %q", ref.Table)
	}
	lay, need := scanLayout(t, ref.Name())
	tableEnv := &Env{Lay: lay, Parent: accEnv}

	// Try index-nested-loop: probes may reference the accumulated row.
	inner := p.chooseAccessPath(t, ref.Name(), lay, need, tableEnv, remaining, c, usedOuter)
	if _, ok := inner.(*IndexEqScan); !ok {
		// Hash join on an equality conjunct split across the two sides.
		standaloneEnv := &Env{Lay: lay, Parent: outerEnv}
		lk, rk, used := p.findHashKeys(accEnv, standaloneEnv, *remaining, c, usedOuter)
		if len(lk) > 0 {
			removeConjuncts(remaining, used)
			if err := p.attachResidualsToScan(inner, standaloneEnv, remaining, c, usedOuter); err != nil {
				return nil, nil, err
			}
			join := &HashJoin{Left: acc, Right: inner, LeftKeys: lk, RightKeys: rk}
			combined := Concat(accLay, lay)
			node, err := p.attachResiduals(join, combined, remaining, outerEnv, c, usedOuter)
			if err != nil {
				return nil, nil, err
			}
			return node, combined, nil
		}
	}

	// Index-nested-loop, or the fallback: nested loop with residuals on
	// the inner scan (which can see the accumulated row through the ctx
	// stack).
	if err := p.attachResidualsToScan(inner, tableEnv, remaining, c, usedOuter); err != nil {
		return nil, nil, err
	}
	return &NestedLoopJoin{Outer: acc, Inner: inner}, Concat(accLay, lay), nil
}

// findHashKeys looks for equality conjuncts with one side compiling in the
// left env and the other in the right env.
func (p *Planner) findHashKeys(leftEnv, rightEnv *Env, conjuncts []sql.Expr, c *compiler, usedOuter *bool) (lk, rk []scalarFn, used []int) {
	for ci, conj := range conjuncts {
		b, ok := conj.(*sql.Binary)
		if !ok || b.Op != "=" {
			continue
		}
		lf, lerr := c.compileExpr(b.L, leftEnv, usedOuter)
		rf, rerr := c.compileExpr(b.R, rightEnv, usedOuter)
		if lerr == nil && rerr == nil && !exprRefsLayout(b.L, rightEnv.Lay) && !exprRefsLayout(b.R, leftEnv.Lay) {
			lk = append(lk, lf)
			rk = append(rk, rf)
			used = append(used, ci)
			continue
		}
		lf2, lerr2 := c.compileExpr(b.R, leftEnv, usedOuter)
		rf2, rerr2 := c.compileExpr(b.L, rightEnv, usedOuter)
		if lerr2 == nil && rerr2 == nil && !exprRefsLayout(b.R, rightEnv.Lay) && !exprRefsLayout(b.L, leftEnv.Lay) {
			lk = append(lk, lf2)
			rk = append(rk, rf2)
			used = append(used, ci)
		}
	}
	return lk, rk, used
}

// exprRefsLayout reports whether e references any column of lay.
func exprRefsLayout(e sql.Expr, lay *Layout) bool {
	return exprRefs(e, func(cr *sql.ColumnRef) bool { return lay.Has(cr.Table, cr.Name) })
}

// planAggregate rewrites the query block around a hash aggregate. Returns
// the new plan, env and rewritten select items.
func (p *Planner) planAggregate(st *sql.SelectStmt, input Node, inEnv *Env, c *compiler, usedOuter *bool) (Node, *Env, []sql.Expr, error) {
	groupKeys := make(map[string]int, len(st.GroupBy))
	groupFns := make([]scalarFn, len(st.GroupBy))
	for i, g := range st.GroupBy {
		f, err := c.compileExpr(g, inEnv, usedOuter)
		if err != nil {
			return nil, nil, nil, err
		}
		groupFns[i] = f
		groupKeys[exprKey(g)] = i
	}
	var aggCalls []*sql.FuncCall
	items := make([]sql.Expr, len(st.Items))
	for i, it := range st.Items {
		ne, err := rewriteForAgg(it, groupKeys, &aggCalls)
		if err != nil {
			return nil, nil, nil, err
		}
		items[i] = ne
	}
	having, err := rewriteForAgg(st.Having, groupKeys, &aggCalls)
	if err != nil {
		return nil, nil, nil, err
	}

	specs := make([]aggSpec, len(aggCalls))
	for i, call := range aggCalls {
		specs[i].kind = aggKinds[call.Name]
		if call.Arg != nil {
			if specs[i].arg, err = c.compileExpr(call.Arg, inEnv, usedOuter); err != nil {
				return nil, nil, nil, err
			}
		}
	}

	postLay := &Layout{}
	for i := range st.GroupBy {
		postLay.Cols = append(postLay.Cols, BoundCol{Qual: "$grp", Name: fmt.Sprintf("g%d", i)})
	}
	for i := range aggCalls {
		postLay.Cols = append(postLay.Cols, BoundCol{Qual: "$agg", Name: fmt.Sprintf("a%d", i)})
	}
	node := Node(&Aggregate{Input: input, GroupFns: groupFns, Specs: specs})
	env := &Env{Lay: postLay, Parent: inEnv.Parent}
	if having != nil {
		pred, err := c.compileExpr(having, env, usedOuter)
		if err != nil {
			return nil, nil, nil, err
		}
		node = &Filter{Input: node, Pred: pred}
	}
	return node, env, items, nil
}

// rewriteForAgg replaces group-by expressions with $grp references and
// aggregate calls with $agg references.
func rewriteForAgg(e sql.Expr, groupKeys map[string]int, aggs *[]*sql.FuncCall) (sql.Expr, error) {
	if e == nil {
		return nil, nil
	}
	if gi, ok := groupKeys[exprKey(e)]; ok {
		return &sql.ColumnRef{Table: "$grp", Name: fmt.Sprintf("g%d", gi)}, nil
	}
	switch ex := e.(type) {
	case *sql.ColumnRef:
		return nil, fmt.Errorf("exec: column %s must appear in GROUP BY or an aggregate", ex.Name)
	case *sql.Binary:
		l, err := rewriteForAgg(ex.L, groupKeys, aggs)
		if err != nil {
			return nil, err
		}
		r, err := rewriteForAgg(ex.R, groupKeys, aggs)
		if err != nil {
			return nil, err
		}
		return &sql.Binary{Op: ex.Op, L: l, R: r}, nil
	case *sql.FuncCall:
		if ex.Window != nil {
			return nil, fmt.Errorf("exec: window function %s cannot be combined with GROUP BY", ex.Name)
		}
		*aggs = append(*aggs, ex)
		return &sql.ColumnRef{Table: "$agg", Name: fmt.Sprintf("a%d", len(*aggs)-1)}, nil
	}
	return e, nil
}

// planWindow materializes window-function results as appended columns and
// rewrites select items to reference them.
func (p *Planner) planWindow(items []sql.Expr, input Node, inEnv *Env, inLay *Layout, c *compiler, usedOuter *bool) (Node, *Env, []sql.Expr, error) {
	var winCalls []*sql.FuncCall
	newItems := make([]sql.Expr, len(items))
	for i, it := range items {
		newItems[i] = collectWindows(it, &winCalls)
	}
	specs := make([]windowSpec, len(winCalls))
	for i, call := range winCalls {
		for _, pe := range call.Window.PartitionBy {
			f, err := c.compileExpr(pe, inEnv, usedOuter)
			if err != nil {
				return nil, nil, nil, err
			}
			specs[i].partFns = append(specs[i].partFns, f)
		}
		for _, oe := range call.Window.OrderBy {
			f, err := c.compileExpr(oe, inEnv, usedOuter)
			if err != nil {
				return nil, nil, nil, err
			}
			specs[i].orderFns = append(specs[i].orderFns, f)
		}
	}
	extLay := &Layout{Cols: append([]BoundCol(nil), inLay.Cols...)}
	for i := range winCalls {
		extLay.Cols = append(extLay.Cols, BoundCol{Qual: "$win", Name: fmt.Sprintf("w%d", i)})
	}
	node := &Window{Input: input, Specs: specs}
	return node, &Env{Lay: extLay, Parent: inEnv.Parent}, newItems, nil
}
