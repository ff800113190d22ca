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

	case *sql.FuncCall:
		return nil, fmt.Errorf("exec: function %s not allowed in this context (aggregates/window functions must appear in SELECT items)", ex.Name)

	case *sql.Subquery:
		f, cols, err := c.compileSubquery(ex.Select, env, usedOuter, scalarResult)
		if err == nil && cols != 1 {
			err = fmt.Errorf("exec: scalar subquery must return one column, got %d", cols)
		}
		return f, err

	case *sql.Exists:
		not := ex.Not
		f, _, err := c.compileSubquery(ex.Select, env, usedOuter, func(n Node, ctx *Ctx) (record.Value, error) {
			found, err := planHasRow(n, ctx)
			return record.Bool(found != not), err
		})
		return f, err
	}
	return nil, fmt.Errorf("exec: unsupported expression %T", e)
}

// cmpSat resolves a comparison operator into the set of three-way results
// that satisfy it: bit 0 for less, 1 for equal, 2 for greater.
var cmpSat = map[string]uint8{"=": 2, "<>": 5, "<": 1, "<=": 3, ">": 4, ">=": 6}

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
		sat := cmpSat[op] // resolved here, once
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
			cmp := 0
			if lv.I < rv.I {
				cmp = -1
			} else if lv.I > rv.I {
				cmp = 1
			}
			return record.Bool(sat>>uint(cmp+1)&1 != 0), nil
		}, nil
	case "+", "-", "*":
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
			return arith(opc, lv, rv), nil
		}, nil
	}
	return nil, fmt.Errorf("exec: unknown binary op %q", op)
}

// arith evaluates a op b for op one of + - *, wrapping on overflow; NULL on
// either side gives NULL.
func arith(op byte, a, b record.Value) record.Value {
	switch {
	case a.Null || b.Null:
		return record.Value{Null: true}
	case op == '+':
		return record.Int(a.I + b.I)
	case op == '-':
		return record.Int(a.I - b.I)
	}
	return record.Int(a.I * b.I)
}

// compileSubquery plans a scalar or EXISTS subquery with the current env as
// parent and returns its evaluation by eval against the current row, with
// the number of columns it yields; an uncorrelated subquery is evaluated once
// per execution and memoized. Both the plan instance and the memo live in
// the Ctx (keyed by a statement-unique id), never in the closure: the
// compiled plan is shared by every execution of a prepared statement,
// concurrently.
func (c *compiler) compileSubquery(sel *sql.SelectStmt, env *Env, usedOuter *bool, eval func(Node, *Ctx) (record.Value, error)) (scalarFn, int, error) {
	var correlated bool
	plan, layout, err := c.planner.planSelect(sel, env, c, &correlated)
	if err != nil {
		return nil, 0, err
	}
	if correlated && usedOuter != nil {
		*usedOuter = true
	}
	id := c.newID()
	return func(ctx *Ctx, row record.Row) (record.Value, error) {
		if !correlated {
			if v, ok := ctx.memoLoad(id); ok {
				return v, nil
			}
		}
		ctx.Push(row)
		out, err := eval(ctx.instance(id, plan), ctx)
		ctx.Pop()
		if err == nil && !correlated {
			ctx.memoStore(id, out)
		}
		return out, err
	}, len(layout.Cols), nil
}

// scalarResult is the value of a scalar subquery: its one row's one column,
// NULL without a row.
func scalarResult(n Node, ctx *Ctx) (record.Value, error) {
	rows, err := runPlan(n, ctx)
	switch {
	case err != nil:
		return record.Value{}, err
	case len(rows) == 0:
		return record.Value{Null: true}, nil
	case len(rows) > 1:
		return record.Value{}, fmt.Errorf("exec: scalar subquery returned %d rows", len(rows))
	}
	return rows[0][0], nil
}

// exprKey renders an expression to a canonical string, used to match GROUP
// BY expressions against select items.
func exprKey(e sql.Expr) string {
	switch ex := e.(type) {
	case *sql.Literal:
		return "lit:" + ex.Val.String()
	case *sql.Param:
		return fmt.Sprintf("param:%d", ex.Index)
	case *sql.ColumnRef:
		return "col:" + strings.ToLower(ex.Table) + "." + strings.ToLower(ex.Name)
	case *sql.Binary:
		return "(" + exprKey(ex.L) + ex.Op + exprKey(ex.R) + ")"
	case *sql.FuncCall:
		if ex.Arg == nil {
			return ex.Name + "(*)"
		}
		return ex.Name + "(" + exprKey(ex.Arg) + ")"
	default:
		return fmt.Sprintf("%p", e) // subqueries never match by fingerprint
	}
}

// exprRefs reports whether e contains a column reference for which ref
// holds. Subqueries are not looked into: they count as referencing anything.
func exprRefs(e sql.Expr, ref func(*sql.ColumnRef) bool) bool {
	switch ex := e.(type) {
	case *sql.Literal, *sql.Param:
		return false
	case *sql.ColumnRef:
		return ref(ex)
	case *sql.Binary:
		return exprRefs(ex.L, ref) || exprRefs(ex.R, ref)
	}
	return true
}

// exprRefsQual reports whether e references the given table alias, or an
// unqualified name that the table's layout defines. Used to decide whether
// an expression is safe to evaluate as an index probe before the table's own
// row exists.
func exprRefsQual(e sql.Expr, qual string, lay *Layout) bool {
	return exprRefs(e, func(cr *sql.ColumnRef) bool {
		if cr.Table == "" {
			return lay.Has("", cr.Name)
		}
		return strings.EqualFold(cr.Table, qual)
	})
}

// hasCall reports whether e contains, outside any subquery, an aggregate
// call (window false) or a window function call (window true).
func hasCall(e sql.Expr, window bool) bool {
	switch ex := e.(type) {
	case *sql.Binary:
		return hasCall(ex.L, window) || hasCall(ex.R, window)
	case *sql.FuncCall:
		return (ex.Window != nil) == window
	}
	return false
}

// collectWindows replaces window FuncCalls with "$win" column references.
func collectWindows(e sql.Expr, wins *[]*sql.FuncCall) sql.Expr {
	switch ex := e.(type) {
	case *sql.Binary:
		return &sql.Binary{Op: ex.Op, L: collectWindows(ex.L, wins), R: collectWindows(ex.R, wins)}
	case *sql.FuncCall:
		if ex.Window != nil {
			*wins = append(*wins, ex)
			return &sql.ColumnRef{Table: "$win", Name: fmt.Sprintf("w%d", len(*wins)-1)}
		}
	}
	return e
}
