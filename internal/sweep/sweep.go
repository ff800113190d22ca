// Package sweep is the one relational set-Dijkstra fixpoint every index
// build runs (§4.2 of the paper): seed a working set, flag the candidates
// below k·wmin or at the global minimum (F), expand them through TEdges
// (E), MERGE the cheaper distances back (M), repeat until no candidate is
// left. SegTable runs it from every node with the lthd bound; the landmark
// oracle and the hub labels run it from one node with no bound, the labels
// with a prune statement between F and E. The degree ranking both of
// those order their sources by lives here too, and so does the declaration
// of every relation the engine owns (design.go), next to the physical
// design axis it is rendered under.
//
// The package owns its working tables and every statement of the loop
// (the E and M ones rendered by internal/fem from the spec in round); it
// reaches the database only through the caller's two statement functions,
// so an engine's builds share its prepared handles and statement
// accounting.
package sweep

import (
	"context"
	"fmt"

	"repro/internal/fem"
	"repro/internal/rdb"
)

// NoBound is the distance bound no path reaches: a sweep run with it
// relaxes to the full single-source fixpoint. It equals core.MaxDist.
const NoBound = int64(1) << 50

// Statement shapes around the expansion. Texts are constants;
// every per-round value — the frontier widening bound k*wmin, the distance
// bound — binds as a parameter, so the loop re-executes cached plans.
const (
	clearQ = "DELETE FROM " + TblWork
	seedQ  = "INSERT INTO " + TblWork + " (src, nid, dist, par, f) SELECT nid, nid, 0, nid, 0 FROM "
	// F-operator (construction rule of §4.2): candidates below k*wmin
	// (bound as "? * ?"), or the global minimum, expand together.
	frontierQ = "UPDATE " + TblWork +
		" SET f = 2 WHERE f = 0 AND (dist < ? * ? OR dist = (SELECT MIN(dist) FROM " + TblWork + " WHERE f = 0))"
	resetQ = "UPDATE " + TblWork + " SET f = 1 WHERE f = 2"
)

// round renders one direction's E+M round as an internal/fem spec keyed
// (src, nid): the cheapest in-bound expansion per (source, node) — the
// distance bound binds as the single parameter — relaxes the recorded
// distance and re-opens the row (f = 0), or inserts the newly reached node
// as a candidate. forward walks outgoing edges (distances FROM each
// source), backward incoming edges (distances TO each source).
func round(l fem.Level, forward bool) []fem.Stmt {
	return fem.Operators(l,
		fem.Expand{Edges: TblEdges, Forward: forward, Cost: "out.cost + q.dist",
			Where: "q.f = 2 AND out.cost + q.dist <= ?", StageCost: tblExpCost},
		fem.Merge{Table: TblWork, Key: []string{"src", "nid"}, Stage: tblExpand,
			Matched:    []fem.Branch{{When: "target.dist > source.cost", Set: "dist = source.cost, par = source.par, f = 0"}},
			InsertCols: "src, nid, dist, par, f", InsertVals: "source.src, source.nid, source.cost, source.par, 0"},
	).Round(false)
}

// ExecFunc and QueryIntFunc are the caller's statement functions, in the
// shape of rdb.Session's ExecContext and QueryIntContext.
type (
	ExecFunc     func(ctx context.Context, q string, args ...any) (rdb.Result, error)
	QueryIntFunc func(ctx context.Context, q string, args ...any) (v int64, null bool, err error)
)

// Runner runs sweeps for one build. It is not safe for concurrent use;
// builds hold the engine's exclusive gate.
type Runner struct {
	db       *rdb.DB
	exec     ExecFunc
	queryInt QueryIntFunc
	wmin     int64
	maxIters int
	level    fem.Level // of the expansion's statements
	strategy IndexStrategy
	stmts    int
}

// New builds a runner that issues its statements through exec and
// queryInt. wmin is the graph's minimal edge weight (the frontier widens
// by it every round), maxIters caps the rounds of one sweep, level is the
// SQL level the expansion is rendered for (fem.LevelOf) and strategy the
// physical design of the index relations a build creates.
func New(db *rdb.DB, exec ExecFunc, queryInt QueryIntFunc, wmin int64, maxIters int, level fem.Level, strategy IndexStrategy) *Runner {
	return &Runner{db: db, exec: exec, queryInt: queryInt, wmin: wmin, maxIters: maxIters, level: level, strategy: strategy}
}

// Exec runs one write statement, returning the affected-row count.
func (r *Runner) Exec(ctx context.Context, q string, args ...any) (int64, error) {
	r.stmts++
	res, err := r.exec(ctx, q, args...)
	return res.RowsAffected, err
}

// QueryInt runs one scalar query.
func (r *Runner) QueryInt(ctx context.Context, q string, args ...any) (v int64, null bool, err error) {
	r.stmts++
	return r.queryInt(ctx, q, args...)
}

// ExecAll runs the statements in order, stopping at the first error.
func (r *Runner) ExecAll(ctx context.Context, stmts ...Query) error {
	for _, s := range stmts {
		if _, err := r.Exec(ctx, s.text, s.args...); err != nil {
			return err
		}
	}
	return nil
}

// Statements reports how many statements the runner has issued.
func (r *Runner) Statements() int { return r.stmts }

// Schema issues DDL for declared relations through the runner.
func (r *Runner) Schema(ctx context.Context) Schema {
	return Schema{Catalog: r.db.Catalog(), Strategy: r.strategy, Level: r.level,
		Exec: func(q string) error {
			_, err := r.Exec(ctx, q)
			return err
		}}
}

// Query is a statement fragment with its bound arguments.
type Query struct {
	text string
	args []any
}

// Q pairs a statement text with the arguments it binds.
func Q(text string, args ...any) Query { return Query{text: text, args: args} }

// One seeds a sweep from the single node nid.
func One(nid int64) Query { return Q(TblNodes+" WHERE nid = ?", nid) }

// Run fills TblWork with set-Dijkstra distances (dist <= bound) from every
// node seed selects — seed is a FROM clause with a nid column, e.g. a
// table name — and returns the rounds it took. forward follows outgoing
// edges, backward incoming ones. A non-empty prune is an UPDATE run every
// round between frontier selection and expansion that sets f = 3 on
// frontier rows (f = 2) the caller can prove need no expansion; pruned
// sums its affected rows. A later round may still reopen a pruned row at a
// smaller distance, and prune then sees it again.
func (r *Runner) Run(ctx context.Context, forward bool, bound int64, seed, prune Query) (iters int, pruned int64, err error) {
	schema := r.Schema(ctx)
	if err := schema.Create(Rel(TblWork)); err != nil {
		return 0, 0, err
	}
	if _, err := r.Exec(ctx, clearQ); err != nil {
		return 0, 0, err
	}
	if _, err := r.Exec(ctx, seedQ+seed.text, seed.args...); err != nil {
		return 0, 0, err
	}
	x := round(r.level, forward)
	// Without the fused MERGE the expansion lands in staging tables keyed
	// like the working set.
	if err := schema.Create(Rel(tblExpand), Rel(tblExpCost)); err != nil {
		return 0, 0, err
	}
	expand := func(s fem.Stmt, args []any) (int64, error) { return r.Exec(ctx, s.Text, args...) }
	for k := int64(1); ; k++ {
		if err := rdb.ContextErr(ctx); err != nil {
			return 0, 0, fmt.Errorf("sweep: cancelled after %d rounds: %w", iters, err)
		}
		if int(k) > r.maxIters {
			return 0, 0, fmt.Errorf("sweep: exceeded %d rounds", r.maxIters)
		}
		cnt, err := r.Exec(ctx, frontierQ, k, r.wmin)
		if err != nil {
			return 0, 0, err
		}
		if cnt == 0 {
			return iters, pruned, nil
		}
		iters++
		if prune.text != "" {
			n, err := r.Exec(ctx, prune.text, prune.args...)
			if err != nil {
				return 0, 0, err
			}
			pruned += n
		}
		if _, err := fem.Run(x, expand, []any{bound}, nil); err != nil {
			return 0, 0, err
		}
		if _, err := r.Exec(ctx, resetQ); err != nil {
			return 0, 0, err
		}
	}
}
