package exec_test

// The reference evaluator: the dialect's definition, as an interpreter of
// sql's AST over in-memory rows. Every block is a nested loop over whole
// tables and every expression is evaluated from the tree: no index, no
// pushdown, no write through a scan, no operator instance to reuse.
//
// A statement is undetermined when it meets an outcome the dialect leaves
// open: TOP n over more than n rows; a rank-1 tie between rows that
// differ; a target row that two source rows of a MERGE or UPDATE ... FROM
// reach (match, or insert and then match); or a subquery of an UPDATE or
// MERGE that reads the target after the statement changed it. The harness
// then checks the written table for consistency, not the outcome.
//
// Whether a statement fails can hang on the plan too: on how much of the
// data it evaluates a scalar subquery's second row or a TOP on (a plan binds
// a pushed operand or a probe key at Open, over no row, and stops a TOP or
// an EXISTS early), and on the order it moves a unique key through a value
// another row still holds (mayFail). The harness compares such a statement
// only where neither fails, and lets the engine fail so only where
// evalEager, which evaluates every operand a plan may bind, does.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/record"
	"repro/internal/sql"
	"repro/internal/table"
)

// refError carries the error a statement raises up to run, and
// refUnsupported what the reference does not define: an unknown or
// ambiguous column, a misplaced aggregate.
type (
	refError       struct{ err error }
	refUnsupported string
)

func raise(msg string) { panic(refError{errors.New("reference: " + msg)}) }

// refTable is one table: its columns, its rows (a write replaces a row,
// never changes it) and its unique keys (ordinals).
type refTable struct {
	cols    []string
	rows    []record.Row
	uniques [][]int
}

// refDB is the reference's catalog, by lower-case table name.
type refDB map[string]*refTable

func (db refDB) clone() refDB {
	out := make(refDB, len(db))
	for k, t := range db {
		c := *t
		c.rows, out[k] = slices.Clone(t.rows), &c
	}
	return out
}

func (db refDB) table(name string) *refTable {
	if t := db[strings.ToLower(name)]; t != nil {
		return t
	}
	panic(refUnsupported("unknown table " + name))
}

// refOutcome is what a statement does on the reference.
type refOutcome struct {
	rows                  []record.Row // a query's result
	n                     int64        // a DML statement's affected count
	err                   error
	undetermined, mayFail bool
	unsupported           string
	db                    refDB  // the state after the statement
	target                string // the table a DML statement writes, lower-case
}

// refScope is one level of name resolution: a row and its columns' names
// (qualifier, name), inside its parent (the enclosing query's row, the
// source row).
type refScope struct {
	cols   [][2]string
	row    record.Row
	parent *refScope
}

func scopeCols(qual string, names []string) [][2]string {
	cols := make([][2]string, len(names))
	for i, n := range names {
		cols[i] = [2]string{qual, n}
	}
	return cols
}

type refEval struct {
	db                     refDB
	params                 []record.Value
	res                    map[*sql.ColumnRef][2]int // levels up, ordinal
	target                 string
	changed, movesKey, und bool
	eager                  bool                             // see evalEager
	given                  map[*sql.SelectStmt][]record.Row // a block's FROM and WHERE rows, in a plan's order
}

// newRef returns an evaluator over a copy of db, binding args (int64, or
// nil for NULL).
func newRef(db refDB, args []any) *refEval {
	e := &refEval{db: db.clone(), res: map[*sql.ColumnRef][2]int{}}
	for _, a := range args {
		v, _ := a.(int64)
		e.params = append(e.params, record.Value{I: v, Null: a == nil})
	}
	return e
}

// evalRef runs st on a copy of db, binding args.
func evalRef(db refDB, st sql.Statement, args []any) refOutcome { return newRef(db, args).run(st) }

// evalEager runs st as evalRef does but evaluates every operand a plan may
// bind at Open: both sides of AND and OR, and each WHERE and ON over a row of
// NULLs as well. It returns the error that raises.
func evalEager(db refDB, st sql.Statement, args []any) error {
	e := newRef(db, args)
	e.eager = true
	return e.run(st).err
}

func (e *refEval) run(st sql.Statement) (out refOutcome) {
	defer func() {
		switch p := recover().(type) {
		case refError:
			out.err = p.err
		case refUnsupported:
			out.unsupported = string(p)
		case nil:
		default:
			panic(p)
		}
		out.undetermined, out.mayFail, out.db, out.target = e.und, e.movesKey, e.db, e.target
	}()
	switch st := st.(type) {
	case *sql.SelectStmt:
		out.rows = e.block(st, nil)
	case *sql.InsertStmt:
		out.n = e.insert(st)
	case *sql.UpdateStmt:
		out.n = e.change(st.Table, st.Table, st.From, st.Where, &sql.MergeMatched{Sets: st.Sets}, nil, false)
	case *sql.DeleteStmt:
		out.n = e.change(st.Table, st.Table, nil, st.Where, &sql.MergeMatched{}, nil, true)
	case *sql.MergeStmt:
		out.n = e.change(st.Target, cmp.Or(st.TargetAlias, st.Target), st.Source, st.On, st.Matched, st.NotMatched, false)
	default:
		panic(refUnsupported(fmt.Sprintf("%T", st)))
	}
	if t := e.db[e.target]; t != nil {
		for _, u := range t.uniques {
			seen := map[string]bool{}
			for _, r := range t.rows {
				if seen[keyOf(r, u)] {
					panic(refError{table.ErrUniqueViolation})
				}
				seen[keyOf(r, u)] = true
			}
		}
	}
	return out
}

// hasCall reports whether x holds, outside subqueries, a window call
// (window) or an aggregate call.
func hasCall(window bool) func(sql.Expr) bool {
	var has func(sql.Expr) bool
	has = func(x sql.Expr) bool {
		switch x := x.(type) {
		case *sql.Binary:
			return has(x.L) || has(x.R)
		case *sql.FuncCall:
			return (x.Window != nil) == window
		}
		return false
	}
	return has
}

// resolve finds qual.name in the innermost scope that holds it once.
func (e *refEval) resolve(cr *sql.ColumnRef, sc *refScope) [2]int {
	if r, ok := e.res[cr]; ok {
		return r
	}
	for up, s := 0, sc; s != nil; up, s = up+1, s.parent {
		var found []int
		for i, c := range s.cols {
			if strings.EqualFold(c[1], cr.Name) && (cr.Table == "" || strings.EqualFold(c[0], cr.Table)) {
				found = append(found, i)
			}
		}
		if len(found) == 1 {
			e.res[cr] = [2]int{up, found[0]}
			return e.res[cr]
		}
	}
	panic(refUnsupported("unknown column " + cr.Table + "." + cr.Name))
}

func (e *refEval) eval(x sql.Expr, sc *refScope) record.Value {
	switch x := x.(type) {
	case *sql.Literal:
		return x.Val
	case *sql.Param:
		if x.Index >= len(e.params) {
			panic(refUnsupported("missing parameter"))
		}
		return e.params[x.Index]
	case *sql.ColumnRef:
		r := e.resolve(x, sc)
		for ; r[0] > 0; r[0]-- {
			sc = sc.parent
		}
		return sc.row[r[1]]
	case *sql.Binary:
		l := e.eval(x.L, sc)
		if x.Op != "AND" && x.Op != "OR" {
			return arith(x.Op, l, e.eval(x.R, sc))
		}
		if decides := l.Truthy() == (x.Op == "OR"); !decides || e.eager {
			if r := e.eval(x.R, sc); !decides {
				return record.Bool(r.Truthy())
			}
		}
		return record.Bool(l.Truthy())
	case *sql.Subquery:
		switch rows := e.block(x.Select, sc); len(rows) {
		case 0:
			return record.Value{Null: true}
		case 1:
			return rows[0][0]
		}
		raise("scalar subquery returned more than one row")
	case *sql.Exists:
		return record.Bool((len(e.block(x.Select, sc)) > 0) != x.Not)
	}
	panic(refUnsupported(fmt.Sprintf("%T here", x)))
}

// compare holds, per comparison, the results of record.Compare that pass.
var compare = map[string][]int{"=": {0}, "<>": {-1, 1}, "<": {-1}, "<=": {-1, 0}, ">": {1}, ">=": {0, 1}}

// arith applies an arithmetic or comparison operator: with a NULL operand
// it is NULL or false, and + - * wrap.
func arith(op string, l, r record.Value) record.Value {
	switch {
	case l.Null || r.Null:
		return record.Value{Null: strings.Contains("+-*", op)}
	case op == "+":
		return record.Int(l.I + r.I)
	case op == "-":
		return record.Int(l.I - r.I)
	case op == "*":
		return record.Int(l.I * r.I)
	}
	return record.Bool(slices.Contains(compare[op], record.Compare(l, r)))
}

// truth evaluates a condition; none holds.
func (e *refEval) truth(x sql.Expr, sc *refScope) bool { return x == nil || e.eval(x, sc).Truthy() }

// bindAll evaluates x over a row of NULLs when eager: what a plan binds at
// Open, whatever rows follow.
func (e *refEval) bindAll(x sql.Expr, sc *refScope) {
	if e.eager {
		sc.row = slices.Repeat(record.Row{{Null: true}}, len(sc.cols))
		e.truth(x, sc)
	}
}

func (e *refEval) items(items []sql.Expr, sc *refScope) record.Row {
	out := make(record.Row, len(items))
	for i, it := range items {
		out[i] = e.eval(it, sc)
	}
	return out
}

// from returns the rows of one FROM entry and the names they carry: a
// derived table's are its column list or, as the planner's itemNames
// does, its items' names.
func (e *refEval) from(ref *sql.TableRef, parent *refScope) ([][2]string, []record.Row) {
	if ref.Sub == nil {
		t := e.db.table(ref.Table)
		e.und = e.und || e.changed && strings.EqualFold(ref.Table, e.target)
		return scopeCols(ref.Name(), t.cols), t.rows
	}
	names, anon := []string(nil), 0
	for _, it := range ref.Sub.Items {
		switch it := it.(type) {
		case *sql.ColumnRef:
			names = append(names, it.Name)
		case *sql.FuncCall:
			names = append(names, strings.ToLower(it.Name))
		default:
			names, anon = append(names, fmt.Sprintf("_c%d", anon)), anon+1
		}
	}
	if len(ref.SubCols) > 0 {
		names = ref.SubCols
	}
	if len(names) != len(ref.Sub.Items) {
		panic(refUnsupported("derived column list"))
	}
	return scopeCols(ref.Alias, names), e.block(ref.Sub, parent)
}

// block evaluates a query block: FROM's nested loop kept by WHERE, then
// ROW_NUMBER, or grouping and aggregates, or the select items; then TOP and
// DISTINCT.
func (e *refEval) block(sel *sql.SelectStmt, parent *refScope) []record.Row {
	sc := &refScope{parent: parent}
	var lists [][]record.Row
	product := 1
	for _, ref := range sel.From {
		cols, rows := e.from(ref, parent)
		sc.cols, lists = append(sc.cols, cols...), append(lists, rows)
		if product = min(product*max(len(rows), 1), 1<<30); product > 1<<23 {
			panic(refUnsupported("a FROM product of more than 2^23 rows")) // a fuzzed text's, not a test's
		}
	}
	kept, given := e.given[sel]
	var loop func(i int, row record.Row)
	loop = func(i int, row record.Row) {
		if i < len(lists) {
			for _, r := range lists[i] {
				loop(i+1, append(row, r...))
			}
		} else if sc.row = row; e.truth(sel.Where, sc) {
			kept = append(kept, slices.Clone(row))
		}
	}
	if !given {
		e.bindAll(sel.Where, sc)
		loop(0, make(record.Row, 0, len(sc.cols)))
	}
	var out []record.Row
	switch {
	case slices.ContainsFunc(sel.Items, hasCall(true)):
		out = e.rankOne(sel, sc, kept)
	case len(sel.GroupBy) > 0 || slices.ContainsFunc(sel.Items, hasCall(false)):
		out = e.aggregate(sel, sc, kept)
	default:
		for _, sc.row = range kept {
			out = append(out, e.items(sel.Items, sc))
		}
	}
	if sel.Top != nil {
		if n := e.eval(sel.Top, &refScope{parent: parent}); n.Null || n.I < 0 {
			raise("TOP requires a non-negative integer")
		} else if int64(len(out)) > n.I {
			e.und, out = true, out[:n.I]
		}
	}
	if sel.Distinct {
		seen := map[string]bool{}
		out = slices.DeleteFunc(out, func(r record.Row) bool {
			k := string(record.EncodeKey(nil, r...))
			dup := seen[k]
			seen[k] = true
			return dup
		})
	}
	return out
}

// rankOne evaluates a block whose item is ROW_NUMBER() OVER (...): rows
// rank within their partition by the order values, input order on a tie.
func (e *refEval) rankOne(sel *sql.SelectStmt, sc *refScope, rows []record.Row) []record.Row {
	wi := slices.IndexFunc(sel.Items, hasCall(true))
	call, _ := sel.Items[wi].(*sql.FuncCall)
	if call == nil {
		panic(refUnsupported("window call in an expression"))
	}
	items := slices.Clone(sel.Items)
	items[wi] = &sql.Literal{Val: record.Int(1)}
	out, ords, parts := make([]record.Row, len(rows)), make([]record.Row, len(rows)), map[string][]int{}
	for i, row := range rows {
		sc.row = row
		k := string(record.EncodeKey(nil, e.items(call.Window.PartitionBy, sc)...))
		out[i], ords[i], parts[k] = e.items(items, sc), e.items(call.Window.OrderBy, sc), append(parts[k], i)
	}
	for _, idx := range parts {
		slices.SortStableFunc(idx, func(a, b int) int { return slices.CompareFunc(ords[a], ords[b], record.Compare) })
		for r, i := range idx {
			tie := r > 0 && slices.CompareFunc(ords[i], ords[idx[0]], record.Compare) == 0
			e.und = e.und || tie && !slices.Equal(out[i], out[idx[0]])
			out[i][wi] = record.Int(int64(r + 1))
		}
	}
	return out
}

// aggregate evaluates a block with GROUP BY or aggregate calls: a row per
// group, in order of first appearance; without GROUP BY one row, even over
// no input.
func (e *refEval) aggregate(sel *sql.SelectStmt, sc *refScope, rows []record.Row) []record.Row {
	keys, groups := []string{""}, map[string][]record.Row{"": rows}
	if len(sel.GroupBy) > 0 {
		keys, groups = nil, map[string][]record.Row{}
		for _, sc.row = range rows {
			k := string(record.EncodeKey(nil, e.items(sel.GroupBy, sc)...))
			if groups[k] == nil {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], sc.row)
		}
	}
	out := make([]record.Row, len(keys))
	for i, k := range keys {
		for _, it := range sel.Items {
			out[i] = append(out[i], e.aggItem(it, sel.GroupBy, groups[k], sc))
		}
	}
	return out
}

// aggItem evaluates x over one group: a GROUP BY expression on its first
// row, an aggregate over its rows (MIN and MAX of none NULL), a subquery in
// the enclosing scope (a group has no row to offer it).
func (e *refEval) aggItem(x sql.Expr, groupBy []sql.Expr, rows []record.Row, sc *refScope) record.Value {
	if slices.ContainsFunc(groupBy, func(g sql.Expr) bool { return exprKey(g) == exprKey(x) }) {
		sc.row = rows[0]
		return e.eval(x, sc)
	}
	switch x := x.(type) {
	case *sql.FuncCall:
		if x.Arg == nil { // COUNT(*)
			return record.Int(int64(len(rows)))
		}
		acc := record.Value{Null: true}
		for _, sc.row = range rows {
			if v := e.eval(x.Arg, sc); !v.Null && (acc.Null || (x.Name == "MIN") == (v.I < acc.I)) {
				acc = v
			}
		}
		return acc
	case *sql.Binary:
		return arith(x.Op, e.aggItem(x.L, groupBy, rows, sc), e.aggItem(x.R, groupBy, rows, sc))
	case *sql.ColumnRef:
		panic(refUnsupported("column outside GROUP BY"))
	}
	return e.eval(x, sc.parent)
}

// exprKey renders an expression for matching select items with GROUP BY
// expressions: names fold case, subqueries never match.
func exprKey(x sql.Expr) string {
	switch x := x.(type) {
	case *sql.ColumnRef:
		return strings.ToLower(x.Table + "." + x.Name)
	case *sql.Literal:
		return x.Val.String()
	case *sql.Param:
		return fmt.Sprint("?", x.Index)
	case *sql.Binary:
		return "(" + exprKey(x.L) + x.Op + exprKey(x.R) + ")"
	case *sql.FuncCall:
		if x.Arg != nil {
			return x.Name + "(" + exprKey(x.Arg) + ")"
		}
	}
	return fmt.Sprintf("%T%p", x, x)
}

func keyOf(r record.Row, cols []int) string { return string(record.EncodeKey(nil, pick(r, cols)...)) }

func pick(r record.Row, cols []int) []record.Value {
	vals := make([]record.Value, len(cols))
	for i, c := range cols {
		vals[i] = r[c]
	}
	return vals
}

// put stores in t, appended or in the place of row i (-1), the row that
// gives each of cols (every column of t) its value in vals, or, with no
// cols, row i with sets evaluated in sc.
func (e *refEval) put(t *refTable, i int, cols []string, vals record.Row, sets []sql.SetClause, sc *refScope) {
	row := make(record.Row, len(t.cols))
	if cols == nil {
		copy(row, t.rows[i])
		for _, s := range sets {
			cols, vals = append(cols, s.Col), append(vals, e.eval(s.Val, sc))
		}
	} else if len(cols) != len(t.cols) || len(vals) != len(cols) {
		panic(refUnsupported("column list"))
	}
	for j, c := range cols {
		if o := slices.IndexFunc(t.cols, func(n string) bool { return strings.EqualFold(n, c) }); o < 0 {
			panic(refUnsupported("unknown column " + c))
		} else if row[o] = vals[j]; vals[j].Null {
			raise("a stored column would hold NULL")
		}
	}
	if e.changed = true; i < 0 {
		t.rows = append(t.rows, row)
		return
	}
	for _, u := range t.uniques {
		e.movesKey = e.movesKey || keyOf(t.rows[i], u) != keyOf(row, u)
	}
	t.rows[i] = row
}

// insert runs INSERT: a query's rows read whole first, or the VALUES rows
// each evaluated after the rows before it are in.
func (e *refEval) insert(st *sql.InsertStmt) int64 {
	t := e.db.table(st.Table)
	e.target = strings.ToLower(st.Table)
	if st.Select != nil {
		rows := e.block(st.Select, nil)
		for _, r := range rows {
			e.put(t, -1, st.Cols, r, nil, nil)
		}
		return int64(len(rows))
	}
	for _, r := range st.Rows {
		e.put(t, -1, st.Cols, e.items(r, &refScope{}), nil, nil)
	}
	return int64(len(st.Rows))
}

// change runs UPDATE, DELETE and MERGE as the engine's mergeRows does: the
// whole source is read first (an UPDATE without FROM and a DELETE have one
// empty source row); then each source row, in turn, collects the target rows
// cond matches — among them rows an earlier source row inserted — and each
// takes the matched branch br when its condition holds; a source row matching nothing inserts,
// given ins. A DELETE removes its rows after the last.
func (e *refEval) change(name, qual string, src *sql.TableRef, cond sql.Expr, br *sql.MergeMatched, ins *sql.MergeInsert, del bool) (n int64) {
	t := e.db.table(name)
	e.target = strings.ToLower(name)
	srcScope, srcRows := &refScope{}, []record.Row{nil}
	if src != nil {
		srcScope.cols, srcRows = e.from(src, nil)
	}
	sc := &refScope{cols: scopeCols(qual, t.cols), parent: srcScope}
	if e.eager {
		srcScope.row = slices.Repeat(record.Row{{Null: true}}, len(srcScope.cols))
		e.bindAll(cond, sc)
	}
	reached, inserted, gone := map[int]bool{}, map[int]int{}, map[int]bool{}
	for si, s := range srcRows {
		srcScope.row = s
		var hits []int
		for i, row := range t.rows {
			if sc.row = row; e.truth(cond, sc) {
				hits = append(hits, i)
			}
		}
		for _, i := range hits {
			e.und, reached[i] = e.und || reached[i], true
			if sc.row = t.rows[i]; br != nil && e.truth(br.And, sc) {
				if n, gone[i] = n+1, del; len(br.Sets) > 0 {
					e.put(t, i, nil, nil, br.Sets, sc)
				}
			}
		}
		if len(hits) == 0 && ins != nil {
			e.put(t, -1, ins.Cols, e.items(ins.Vals, srcScope), nil, nil)
			n, reached[len(t.rows)-1], inserted[len(t.rows)-1] = n+1, true, si
		}
	}
	// A row one source row inserted that an earlier one matches: in the
	// other order, that one would have inserted or changed it.
	for i, si := range inserted {
		for _, srcScope.row = range srcRows[:si] {
			sc.row = t.rows[i]
			e.und = e.und || e.truth(cond, sc)
		}
	}
	kept := t.rows[:0]
	for i, r := range t.rows {
		if !gone[i] {
			kept = append(kept, r)
		}
	}
	t.rows = kept
	return n
}
