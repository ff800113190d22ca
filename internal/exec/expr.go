package exec

import (
	"fmt"
	"strings"

	"repro/internal/record"
	"repro/internal/sql"
)

// scalarFn evaluates a compiled expression against the current row.
type scalarFn func(ctx *Ctx, row record.Row) (record.Value, error)

// compiler carries compilation state shared across one statement.
type compiler struct {
	planner *Planner
	params  int // number of placeholders expected (validated by rdb)
	ids     int // sub-plan id allocator (per-execution state lives in Ctx)
}

// newID allocates a statement-unique id for a sub-plan or memo slot.
func (c *compiler) newID() int {
	c.ids++
	return c.ids
}

// compileExpr compiles e for rows shaped by env. usedOuter is set when the
// expression captures columns from an enclosing env level (i.e. it is
// correlated).
func (c *compiler) compileExpr(e sql.Expr, env *Env, usedOuter *bool) (scalarFn, error) {
	switch ex := e.(type) {
	case *sql.Literal:
		v := ex.Val
		return func(*Ctx, record.Row) (record.Value, error) { return v, nil }, nil

	case *sql.Param:
		idx := ex.Index
		return func(ctx *Ctx, _ record.Row) (record.Value, error) {
			if idx >= len(ctx.Params) {
				return record.Value{}, fmt.Errorf("exec: missing parameter %d", idx+1)
			}
			return ctx.Params[idx], nil
		}, nil

	case *sql.ColumnRef:
		res, err := env.resolve(ex.Table, ex.Name)
		if err != nil {
			return nil, err
		}
		if res.levelsUp == 0 {
			idx := res.idx
			return func(_ *Ctx, row record.Row) (record.Value, error) {
				if idx >= len(row) {
					return record.Value{}, fmt.Errorf("exec: row too short for column %d", idx)
				}
				return row[idx], nil
			}, nil
		}
		if usedOuter != nil {
			*usedOuter = true
		}
		lv, idx := res.levelsUp, res.idx
		return func(ctx *Ctx, _ record.Row) (record.Value, error) {
			outer := ctx.Outer(lv)
			if idx >= len(outer) {
				return record.Value{}, fmt.Errorf("exec: outer row too short for column %d", idx)
			}
			return outer[idx], nil
		}, nil

	case *sql.Unary:
		inner, err := c.compileExpr(ex.E, env, usedOuter)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "-":
			return func(ctx *Ctx, row record.Row) (record.Value, error) {
				v, err := inner(ctx, row)
				if err != nil || v.Null {
					return v, err
				}
				switch v.Typ {
				case record.TInt:
					return record.Int(-v.I), nil
				case record.TFloat:
					return record.Float(-v.F), nil
				}
				return record.Value{}, fmt.Errorf("exec: unary minus on %s", v.Typ)
			}, nil
		case "NOT":
			return func(ctx *Ctx, row record.Row) (record.Value, error) {
				v, err := inner(ctx, row)
				if err != nil {
					return record.Value{}, err
				}
				return record.Bool(!v.Truthy()), nil
			}, nil
		}
		return nil, fmt.Errorf("exec: unknown unary op %q", ex.Op)

	case *sql.Binary:
		l, err := c.compileExpr(ex.L, env, usedOuter)
		if err != nil {
			return nil, err
		}
		r, err := c.compileExpr(ex.R, env, usedOuter)
		if err != nil {
			return nil, err
		}
		return compileBinary(ex.Op, l, r)

	case *sql.IsNull:
		inner, err := c.compileExpr(ex.E, env, usedOuter)
		if err != nil {
			return nil, err
		}
		not := ex.Not
		return func(ctx *Ctx, row record.Row) (record.Value, error) {
			v, err := inner(ctx, row)
			if err != nil {
				return record.Value{}, err
			}
			return record.Bool(v.Null != not), nil
		}, nil

	case *sql.InList:
		inner, err := c.compileExpr(ex.E, env, usedOuter)
		if err != nil {
			return nil, err
		}
		items := make([]scalarFn, len(ex.Items))
		for i, it := range ex.Items {
			f, err := c.compileExpr(it, env, usedOuter)
			if err != nil {
				return nil, err
			}
			items[i] = f
		}
		not := ex.Not
		return func(ctx *Ctx, row record.Row) (record.Value, error) {
			v, err := inner(ctx, row)
			if err != nil {
				return record.Value{}, err
			}
			if v.Null {
				return record.Bool(false), nil
			}
			for _, f := range items {
				iv, err := f(ctx, row)
				if err != nil {
					return record.Value{}, err
				}
				if record.Equal(v, iv) {
					return record.Bool(!not), nil
				}
			}
			return record.Bool(not), nil
		}, nil

	case *sql.FuncCall:
		return nil, fmt.Errorf("exec: function %s not allowed in this context (aggregates/window functions must appear in SELECT items)", ex.Name)

	case *sql.Subquery:
		return c.compileScalarSubquery(ex.Select, env, usedOuter)

	case *sql.Exists:
		return c.compileExists(ex, env, usedOuter)
	}
	return nil, fmt.Errorf("exec: unsupported expression %T", e)
}

func compileBinary(op string, l, r scalarFn) (scalarFn, error) {
	switch op {
	case "AND":
		return func(ctx *Ctx, row record.Row) (record.Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return record.Value{}, err
			}
			if !lv.Truthy() {
				return record.Bool(false), nil
			}
			rv, err := r(ctx, row)
			if err != nil {
				return record.Value{}, err
			}
			return record.Bool(rv.Truthy()), nil
		}, nil
	case "OR":
		return func(ctx *Ctx, row record.Row) (record.Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return record.Value{}, err
			}
			if lv.Truthy() {
				return record.Bool(true), nil
			}
			rv, err := r(ctx, row)
			if err != nil {
				return record.Value{}, err
			}
			return record.Bool(rv.Truthy()), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		// The operator is resolved here, once, into the set of three-way
		// results that satisfy it: bit 0 for less, 1 for equal, 2 for greater.
		sat := map[string]uint{"=": 2, "<>": 5, "<": 1, "<=": 3, ">": 4, ">=": 6}[op]
		return func(ctx *Ctx, row record.Row) (record.Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return record.Value{}, err
			}
			rv, err := r(ctx, row)
			if err != nil {
				return record.Value{}, err
			}
			if lv.Null || rv.Null {
				// Simplified three-valued logic: UNKNOWN behaves as FALSE.
				return record.Bool(false), nil
			}
			var cmp int
			if lv.Typ != record.TInt || rv.Typ != record.TInt {
				cmp = record.Compare(lv, rv)
			} else if lv.I < rv.I {
				cmp = -1
			} else if lv.I > rv.I {
				cmp = 1
			}
			return record.Bool(sat>>uint(cmp+1)&1 != 0), nil
		}, nil
	case "+", "-", "*", "/":
		opc := op[0]
		return func(ctx *Ctx, row record.Row) (record.Value, error) {
			lv, err := l(ctx, row)
			if err != nil {
				return record.Value{}, err
			}
			rv, err := r(ctx, row)
			if err != nil {
				return record.Value{}, err
			}
			return arith(opc, lv, rv)
		}, nil
	}
	return nil, fmt.Errorf("exec: unknown binary op %q", op)
}

// arith evaluates a op b for op one of + - * /. INT op INT stays INT; NULL
// on either side gives NULL; any other numeric mix widens to FLOAT.
func arith(op byte, a, b record.Value) (record.Value, error) {
	if a.Null || b.Null {
		return record.Value{Null: true, Typ: record.TInt}, nil
	}
	if a.Typ == record.TInt && b.Typ == record.TInt {
		switch op {
		case '+':
			return record.Int(a.I + b.I), nil
		case '-':
			return record.Int(a.I - b.I), nil
		case '*':
			return record.Int(a.I * b.I), nil
		}
		if b.I == 0 {
			return record.Value{}, fmt.Errorf("exec: division by zero")
		}
		return record.Int(a.I / b.I), nil
	}
	if a.Typ == record.TText || b.Typ == record.TText {
		if op == '+' {
			return record.Text(a.String() + b.String()), nil
		}
		return record.Value{}, fmt.Errorf("exec: %c not defined on TEXT", op)
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch op {
	case '+':
		return record.Float(af + bf), nil
	case '-':
		return record.Float(af - bf), nil
	case '*':
		return record.Float(af * bf), nil
	}
	if bf == 0 {
		return record.Value{}, fmt.Errorf("exec: division by zero")
	}
	return record.Float(af / bf), nil
}

// compileScalarSubquery plans the subquery with the current env as parent;
// uncorrelated subqueries are evaluated once per execution and memoized.
// Both the plan instance and the memo live in the Ctx (keyed by a
// statement-unique id), never in the closure: the compiled plan is shared
// by every execution of a prepared statement, concurrently.
func (c *compiler) compileScalarSubquery(sel *sql.SelectStmt, env *Env, usedOuter *bool) (scalarFn, error) {
	var subUsedOuter bool
	plan, layout, err := c.planner.planSelect(sel, env, c, &subUsedOuter)
	if err != nil {
		return nil, err
	}
	if len(layout.Cols) != 1 {
		return nil, fmt.Errorf("exec: scalar subquery must return one column, got %d", len(layout.Cols))
	}
	if subUsedOuter && usedOuter != nil {
		*usedOuter = true
	}
	correlated := subUsedOuter
	id := c.newID()
	return func(ctx *Ctx, row record.Row) (record.Value, error) {
		if !correlated {
			if v, ok := ctx.memoLoad(id); ok {
				return v, nil
			}
		}
		inst := ctx.instance(id, plan)
		ctx.Push(row)
		rows, err := runPlan(inst, ctx)
		ctx.Pop()
		if err != nil {
			return record.Value{}, err
		}
		var out record.Value
		switch len(rows) {
		case 0:
			out = record.Value{Null: true}
		case 1:
			out = rows[0][0]
		default:
			return record.Value{}, fmt.Errorf("exec: scalar subquery returned %d rows", len(rows))
		}
		if !correlated {
			ctx.memoStore(id, out)
		}
		return out, nil
	}, nil
}

func (c *compiler) compileExists(ex *sql.Exists, env *Env, usedOuter *bool) (scalarFn, error) {
	var subUsedOuter bool
	plan, _, err := c.planner.planSelect(ex.Select, env, c, &subUsedOuter)
	if err != nil {
		return nil, err
	}
	if subUsedOuter && usedOuter != nil {
		*usedOuter = true
	}
	correlated := subUsedOuter
	not := ex.Not
	id := c.newID()
	return func(ctx *Ctx, row record.Row) (record.Value, error) {
		if !correlated {
			if v, ok := ctx.memoLoad(id); ok {
				return v, nil
			}
		}
		inst := ctx.instance(id, plan)
		ctx.Push(row)
		found, err := planHasRow(inst, ctx)
		ctx.Pop()
		if err != nil {
			return record.Value{}, err
		}
		out := record.Bool(found != not)
		if !correlated {
			ctx.memoStore(id, out)
		}
		return out, nil
	}, nil
}

// exprKey renders an expression to a canonical string, used to match GROUP
// BY expressions against select items and window partition keys.
func exprKey(e sql.Expr) string {
	switch ex := e.(type) {
	case *sql.Literal:
		return "lit:" + ex.Val.String()
	case *sql.Param:
		return fmt.Sprintf("param:%d", ex.Index)
	case *sql.ColumnRef:
		return "col:" + strings.ToLower(ex.Table) + "." + strings.ToLower(ex.Name)
	case *sql.Unary:
		return ex.Op + "(" + exprKey(ex.E) + ")"
	case *sql.Binary:
		return "(" + exprKey(ex.L) + ex.Op + exprKey(ex.R) + ")"
	case *sql.IsNull:
		return fmt.Sprintf("isnull:%v(%s)", ex.Not, exprKey(ex.E))
	case *sql.InList:
		parts := make([]string, len(ex.Items))
		for i, it := range ex.Items {
			parts[i] = exprKey(it)
		}
		return fmt.Sprintf("in:%v(%s;%s)", ex.Not, exprKey(ex.E), strings.Join(parts, ","))
	case *sql.FuncCall:
		parts := make([]string, len(ex.Args))
		for i, a := range ex.Args {
			parts[i] = exprKey(a)
		}
		s := ex.Name + "(" + strings.Join(parts, ",")
		if ex.Star {
			s += "*"
		}
		return s + ")"
	default:
		return fmt.Sprintf("%p", e) // subqueries never match by fingerprint
	}
}

// exprRefsQual reports whether e syntactically references the given table
// alias, or references an unqualified name that the table's layout defines.
// Used to decide whether an expression is safe to evaluate as an index
// probe before the table's own row exists.
func exprRefsQual(e sql.Expr, qual string, lay *Layout) bool {
	switch ex := e.(type) {
	case nil:
		return false
	case *sql.Literal, *sql.Param:
		return false
	case *sql.ColumnRef:
		if strings.EqualFold(ex.Table, qual) && ex.Table != "" {
			return true
		}
		if ex.Table == "" && lay.Has("", ex.Name) {
			return true
		}
		return false
	case *sql.Unary:
		return exprRefsQual(ex.E, qual, lay)
	case *sql.Binary:
		return exprRefsQual(ex.L, qual, lay) || exprRefsQual(ex.R, qual, lay)
	case *sql.IsNull:
		return exprRefsQual(ex.E, qual, lay)
	case *sql.InList:
		if exprRefsQual(ex.E, qual, lay) {
			return true
		}
		for _, it := range ex.Items {
			if exprRefsQual(it, qual, lay) {
				return true
			}
		}
		return false
	case *sql.FuncCall:
		for _, a := range ex.Args {
			if exprRefsQual(a, qual, lay) {
				return true
			}
		}
		return false
	case *sql.Subquery, *sql.Exists:
		// Conservatively assume subqueries may reference anything.
		return true
	}
	return true
}

// collectAggregates walks e, replacing aggregate FuncCalls with references
// to synthetic columns "$aggN" and appending specs to aggs. Window calls are
// rejected here (handled by the window path).
func collectAggregates(e sql.Expr, aggs *[]*sql.FuncCall) (sql.Expr, error) {
	switch ex := e.(type) {
	case nil:
		return nil, nil
	case *sql.Literal, *sql.Param, *sql.ColumnRef:
		return e, nil
	case *sql.Unary:
		inner, err := collectAggregates(ex.E, aggs)
		if err != nil {
			return nil, err
		}
		return &sql.Unary{Op: ex.Op, E: inner}, nil
	case *sql.Binary:
		l, err := collectAggregates(ex.L, aggs)
		if err != nil {
			return nil, err
		}
		r, err := collectAggregates(ex.R, aggs)
		if err != nil {
			return nil, err
		}
		return &sql.Binary{Op: ex.Op, L: l, R: r}, nil
	case *sql.IsNull:
		inner, err := collectAggregates(ex.E, aggs)
		if err != nil {
			return nil, err
		}
		return &sql.IsNull{Not: ex.Not, E: inner}, nil
	case *sql.FuncCall:
		if ex.Window != nil {
			return nil, fmt.Errorf("exec: window function %s not allowed with GROUP BY", ex.Name)
		}
		if !isAggregateName(ex.Name) {
			return nil, fmt.Errorf("exec: unknown function %s", ex.Name)
		}
		idx := len(*aggs)
		*aggs = append(*aggs, ex)
		return &sql.ColumnRef{Table: "$agg", Name: fmt.Sprintf("a%d", idx)}, nil
	case *sql.Subquery, *sql.Exists, *sql.InList:
		return e, nil
	}
	return e, nil
}

func isAggregateName(n string) bool {
	switch n {
	case "MIN", "MAX", "SUM", "COUNT", "AVG":
		return true
	}
	return false
}

// hasAggregate reports whether e contains an aggregate call outside any
// window spec.
func hasAggregate(e sql.Expr) bool {
	switch ex := e.(type) {
	case nil:
		return false
	case *sql.Unary:
		return hasAggregate(ex.E)
	case *sql.Binary:
		return hasAggregate(ex.L) || hasAggregate(ex.R)
	case *sql.IsNull:
		return hasAggregate(ex.E)
	case *sql.FuncCall:
		return ex.Window == nil && isAggregateName(ex.Name)
	case *sql.InList:
		if hasAggregate(ex.E) {
			return true
		}
		for _, it := range ex.Items {
			if hasAggregate(it) {
				return true
			}
		}
	}
	return false
}

// hasWindow reports whether e contains a window function call.
func hasWindow(e sql.Expr) bool {
	switch ex := e.(type) {
	case nil:
		return false
	case *sql.Unary:
		return hasWindow(ex.E)
	case *sql.Binary:
		return hasWindow(ex.L) || hasWindow(ex.R)
	case *sql.IsNull:
		return hasWindow(ex.E)
	case *sql.FuncCall:
		return ex.Window != nil
	}
	return false
}

// collectWindows replaces window FuncCalls with "$win" column references.
func collectWindows(e sql.Expr, wins *[]*sql.FuncCall) (sql.Expr, error) {
	switch ex := e.(type) {
	case nil:
		return nil, nil
	case *sql.Literal, *sql.Param, *sql.ColumnRef, *sql.Subquery, *sql.Exists, *sql.InList:
		return e, nil
	case *sql.Unary:
		inner, err := collectWindows(ex.E, wins)
		if err != nil {
			return nil, err
		}
		return &sql.Unary{Op: ex.Op, E: inner}, nil
	case *sql.Binary:
		l, err := collectWindows(ex.L, wins)
		if err != nil {
			return nil, err
		}
		r, err := collectWindows(ex.R, wins)
		if err != nil {
			return nil, err
		}
		return &sql.Binary{Op: ex.Op, L: l, R: r}, nil
	case *sql.IsNull:
		inner, err := collectWindows(ex.E, wins)
		if err != nil {
			return nil, err
		}
		return &sql.IsNull{Not: ex.Not, E: inner}, nil
	case *sql.FuncCall:
		if ex.Window == nil {
			return nil, fmt.Errorf("exec: bare function %s outside GROUP BY context", ex.Name)
		}
		idx := len(*wins)
		*wins = append(*wins, ex)
		return &sql.ColumnRef{Table: "$win", Name: fmt.Sprintf("w%d", idx)}, nil
	}
	return e, nil
}
