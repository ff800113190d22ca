package exec

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/table"
)

func testCatalog(t *testing.T) *table.Catalog {
	t.Helper()
	cat := table.NewCatalog(storage.NewBufferPool(storage.NewMemDiskManager(0), 64))
	edges := record.MustSchema(
		record.Column{Name: "fid", Type: record.TInt},
		record.Column{Name: "tid", Type: record.TInt},
		record.Column{Name: "cost", Type: record.TInt},
	)
	et, err := cat.Create("TEdges", edges, table.Options{ClusterOn: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := et.CreateIndex("te_tid", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	visited := record.MustSchema(
		record.Column{Name: "nid", Type: record.TInt},
		record.Column{Name: "d2s", Type: record.TInt},
		record.Column{Name: "f", Type: record.TInt},
	)
	if _, err := cat.Create("TVisited", visited, table.Options{ClusterOn: []int{0}, ClusterUnique: true}); err != nil {
		t.Fatal(err)
	}
	heap := record.MustSchema(
		record.Column{Name: "k", Type: record.TInt},
		record.Column{Name: "v", Type: record.TInt},
	)
	if _, err := cat.Create("plain", heap, table.Options{}); err != nil {
		t.Fatal(err)
	}
	return cat
}

func planOf(t *testing.T, cat *table.Catalog, q string) Node {
	t.Helper()
	st, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ps, err := NewPlanner(cat).PrepareSelect(st.(*sql.SelectStmt))
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return ps.plan
}

// unwrap strips post-processing operators to reach the access-path node.
func unwrap(n Node) Node {
	for {
		switch v := n.(type) {
		case *Project:
			n = v.Input
		case *Filter:
			n = v.Input
		case *Limit:
			n = v.Input
		case *Distinct:
			n = v.Input
		default:
			return n
		}
	}
}

func TestPlannerUsesClusteredProbe(t *testing.T) {
	cat := testCatalog(t)
	n := unwrap(planOf(t, cat, "SELECT tid FROM TEdges WHERE fid = 7"))
	scan, ok := n.(*IndexEqScan)
	if !ok {
		t.Fatalf("expected IndexEqScan, got %T", n)
	}
	if scan.Index != nil {
		t.Fatal("fid probe should use the clustered index")
	}
}

func TestPlannerUsesSecondaryProbe(t *testing.T) {
	cat := testCatalog(t)
	n := unwrap(planOf(t, cat, "SELECT fid FROM TEdges WHERE tid = 7"))
	scan, ok := n.(*IndexEqScan)
	if !ok {
		t.Fatalf("expected IndexEqScan, got %T", n)
	}
	if scan.Index == nil || scan.Index.Name != "te_tid" {
		t.Fatal("tid probe should use the secondary index")
	}
}

func TestPlannerFallsBackToSeqScan(t *testing.T) {
	cat := testCatalog(t)
	n := unwrap(planOf(t, cat, "SELECT fid FROM TEdges WHERE cost = 7"))
	if _, ok := n.(*SeqScan); !ok {
		t.Fatalf("expected SeqScan for unindexed predicate, got %T", n)
	}
	// Range predicates on indexed columns also scan (only equality probes).
	n = unwrap(planOf(t, cat, "SELECT fid FROM TEdges WHERE fid > 7"))
	if _, ok := n.(*SeqScan); !ok {
		t.Fatalf("expected SeqScan for range predicate, got %T", n)
	}
}

func TestPlannerIndexNestedLoopJoin(t *testing.T) {
	cat := testCatalog(t)
	n := unwrap(planOf(t, cat,
		"SELECT q.nid FROM TVisited q, TEdges out WHERE q.nid = out.fid AND q.f = 2"))
	join, ok := n.(*NestedLoopJoin)
	if !ok {
		t.Fatalf("expected NestedLoopJoin, got %T", n)
	}
	inner, ok := join.Inner.(*IndexEqScan)
	if !ok {
		t.Fatalf("inner should be an index probe, got %T", join.Inner)
	}
	if inner.Index != nil {
		t.Fatal("E-operator join must probe the clustered edge index")
	}
}

func TestPlannerHashJoinWithoutIndex(t *testing.T) {
	cat := testCatalog(t)
	n := unwrap(planOf(t, cat,
		"SELECT p.v FROM TEdges e, plain p WHERE e.cost = p.k"))
	if _, ok := n.(*HashJoin); !ok {
		t.Fatalf("expected HashJoin for unindexed equi-join, got %T", n)
	}
}

func TestLayoutResolve(t *testing.T) {
	lay := &Layout{Cols: []BoundCol{
		{Qual: "q", Name: "nid"},
		{Qual: "out", Name: "nid"},
		{Qual: "out", Name: "cost"},
	}}
	if i, err := lay.Resolve("q", "nid"); err != nil || i != 0 {
		t.Fatalf("qualified resolve: %d %v", i, err)
	}
	if i, err := lay.Resolve("", "cost"); err != nil || i != 2 {
		t.Fatalf("unqualified resolve: %d %v", i, err)
	}
	if _, err := lay.Resolve("", "nid"); err == nil {
		t.Fatal("ambiguous column must fail")
	}
	if _, err := lay.Resolve("q", "cost"); err == nil {
		t.Fatal("missing qualified column must fail")
	}
}

func TestEnvCorrelatedResolve(t *testing.T) {
	inner := &Layout{Cols: []BoundCol{{Qual: "v", Name: "nid"}}}
	outer := &Layout{Cols: []BoundCol{{Qual: "s", Name: "nid"}, {Qual: "s", Name: "cost"}}}
	env := &Env{Lay: inner, Parent: &Env{Lay: outer}}
	r, err := env.resolve("v", "nid")
	if err != nil || r.levelsUp != 0 || r.idx != 0 {
		t.Fatalf("inner resolve: %+v %v", r, err)
	}
	r, err = env.resolve("s", "cost")
	if err != nil || r.levelsUp != 1 || r.idx != 1 {
		t.Fatalf("outer resolve: %+v %v", r, err)
	}
	if _, err := env.resolve("x", "y"); err == nil || !strings.HasSuffix(err.Error(), "unknown column x.y") {
		t.Fatalf("unknown qualified column: %v", err)
	}
	if _, err := env.resolve("", "nope"); err == nil || !strings.HasSuffix(err.Error(), "unknown column nope") {
		t.Fatalf("unknown unqualified column: %v", err)
	}
}

func TestExprKeyFingerprint(t *testing.T) {
	parse := func(q string) sql.Expr {
		st, err := sql.Parse("SELECT " + q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		return st.(*sql.SelectStmt).Items[0]
	}
	a := parse("out.tid + q.d2s")
	b := parse("OUT.TID + Q.D2S") // case-insensitive match
	c := parse("out.tid + q.d2t")
	if exprKey(a) != exprKey(b) {
		t.Fatal("fingerprint should be case-insensitive")
	}
	if exprKey(a) == exprKey(c) {
		t.Fatal("different expressions must differ")
	}
}

func TestSplitConjuncts(t *testing.T) {
	st, _ := sql.Parse("SELECT 1 FROM plain WHERE k = 1 AND v = 2 AND (k = 3 OR v = 4)")
	sel := st.(*sql.SelectStmt)
	conjs := splitConjuncts(sel.Where)
	if len(conjs) != 3 {
		t.Fatalf("conjuncts: %d", len(conjs))
	}
	if splitConjuncts(nil) != nil {
		t.Fatal("nil where")
	}
	if andAll(nil) != nil {
		t.Fatal("andAll of nothing")
	}
}

func TestArith(t *testing.T) {
	null := record.Value{Null: true}
	cases := []struct {
		op   byte
		a, b record.Value
		want record.Value
	}{
		{'+', record.Int(2), record.Int(3), record.Int(5)},
		{'-', record.Int(2), record.Int(3), record.Int(-1)},
		{'*', record.Int(4), record.Int(3), record.Int(12)},
		{'+', null, record.Int(1), null},
		{'*', record.Int(1), null, null},
	}
	for _, c := range cases {
		if got := arith(c.op, c.a, c.b); got != c.want {
			t.Errorf("arith(%c, %v, %v) = %v; want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

// TestPlannerPushesComparisons pins the one classifier: which conjuncts of a
// scan become pushed predicates (column ordinal, satisfied set with the
// column on the left), which stay in the residual, and that a column only a
// pushed predicate reads is not decoded — for SELECT scans and for the
// targets of UPDATE, DELETE and MERGE alike — and which DELETE ... WHERE
// EXISTS run from the subquery's table (source), probing the target.
func TestPlannerPushesComparisons(t *testing.T) {
	cat := testCatalog(t)
	type pushed struct {
		col int
		sat uint8
	}
	for _, tc := range []struct {
		q        string
		index    bool // an index probe, not a sequential scan
		source   bool // a DML statement that runs from a source plan
		pushed   []pushed
		residual bool
		need     []bool
		folds    bool // an aggregate over the scan that runs on its pages
	}{
		{q: "SELECT MIN(d2s) FROM TVisited WHERE f = 0", pushed: []pushed{{2, 2}}, need: []bool{false, true, false}, folds: true},
		// The statistics probe, COUNT(*) and MAX fold, with or without a
		// pushed predicate; a residual, a GROUP BY, a join, a + of anything
		// but stored columns or an index probe keeps the row aggregate.
		{q: "SELECT MIN(d2s), MIN(d2s + nid) FROM TVisited WHERE f = 0", pushed: []pushed{{2, 2}}, need: []bool{true, true, false}, folds: true},
		{q: "SELECT COUNT(*) FROM TVisited", need: []bool{false, false, false}, folds: true},
		{q: "SELECT MIN(nid), MAX(d2s), MIN(nid + d2s + f), COUNT(*) FROM TVisited v WHERE v.f > ? AND 3 >= d2s",
			pushed: []pushed{{2, 4}, {1, 3}}, need: []bool{true, true, true}, folds: true},
		{q: "SELECT MIN(d2s) FROM TVisited WHERE f = 0 OR f = 2", residual: true, need: []bool{false, true, true}},
		{q: "SELECT f, MIN(d2s) FROM TVisited GROUP BY f", need: []bool{false, true, true}},
		{q: "SELECT MIN(q.d2s) FROM TVisited q, TEdges out WHERE q.nid = out.fid AND q.f = 2", pushed: []pushed{{2, 2}}, need: []bool{true, true, false}},
		{q: "SELECT MIN(d2s + 1) FROM TVisited WHERE f = 0", pushed: []pushed{{2, 2}}, need: []bool{false, true, false}},
		{q: "SELECT MIN(cost) FROM TEdges WHERE fid = ?", index: true, need: []bool{false, false, true}},
		{q: "SELECT nid FROM TVisited WHERE 3 < d2s AND f >= ?", pushed: []pushed{{1, 4}, {2, 6}}, need: []bool{true, false, false}},
		{q: "SELECT nid FROM TVisited WHERE ? * 2 <> f", pushed: []pushed{{2, 5}}, need: []bool{true, false, false}},
		{q: "SELECT nid FROM TVisited WHERE f = 0 AND d2s = (SELECT MIN(d2s) FROM TVisited WHERE f = 0)",
			pushed: []pushed{{2, 2}, {1, 2}}, need: []bool{true, false, false}},
		{q: "SELECT tid FROM TEdges WHERE fid = 7 AND cost <= ?", index: true, pushed: []pushed{{2, 3}}, need: []bool{false, true, false}},
		// Not a comparison of a column with something outside the table.
		{q: "SELECT nid FROM TVisited WHERE d2s = f", residual: true, need: []bool{true, true, true}},
		{q: "SELECT nid FROM TVisited WHERE d2s + 0 = ?", residual: true, need: []bool{true, true, false}},
		{q: "SELECT nid FROM TVisited WHERE f = 0 OR f = 2", residual: true, need: []bool{true, false, true}},
		{q: "SELECT nid FROM TVisited v WHERE f = 0 AND d2s = (SELECT MIN(cost) FROM TEdges WHERE fid = v.nid)",
			pushed: []pushed{{2, 2}}, residual: true, need: []bool{true, true, false}},
		// DML targets go through the same classifier.
		{q: "UPDATE TVisited SET f = 2 WHERE f = 0 AND d2s = (SELECT MIN(d2s) FROM TVisited WHERE f = 0)",
			pushed: []pushed{{2, 2}, {1, 2}}, need: []bool{false, false, false}},
		{q: "UPDATE TVisited SET f = 1 WHERE f = 2", pushed: []pushed{{2, 2}}, need: []bool{false, false, false}},
		{q: "UPDATE TVisited SET d2s = d2s + 1 WHERE f > d2s", residual: true, need: []bool{false, true, true}},
		{q: "DELETE FROM TVisited WHERE f = 2 AND d2s < ?", pushed: []pushed{{2, 2}, {1, 1}}, need: []bool{false, false, false}},
		{q: "UPDATE TVisited SET f = 0 FROM plain WHERE TVisited.nid = plain.k AND plain.v < TVisited.d2s",
			index: true, source: true, pushed: []pushed{{1, 4}}, need: []bool{false, false, false}},
		{q: "MERGE INTO TVisited AS target USING plain AS s ON (target.nid = s.k AND target.d2s > s.v) " +
			"WHEN MATCHED AND target.f = 1 THEN UPDATE SET d2s = s.v",
			index: true, source: true, pushed: []pushed{{1, 4}}, need: []bool{false, false, true}},
		// DELETE ... WHERE EXISTS runs from the subquery's table when its
		// equalities cover an index prefix of the target: the clustered key's
		// first column (the rest of the correlation is pushed), a secondary
		// index, with an inequality and a conjunct on the target beside it.
		{q: "DELETE FROM TEdges WHERE EXISTS (SELECT k FROM plain m WHERE m.k = TEdges.fid AND m.v = TEdges.tid)",
			index: true, source: true, pushed: []pushed{{1, 2}}, need: []bool{false, false, false}},
		{q: "DELETE FROM TEdges WHERE fid <> ? AND EXISTS (SELECT k FROM plain m WHERE TEdges.tid = m.k AND m.v < TEdges.cost)",
			index: true, source: true, pushed: []pushed{{2, 4}, {0, 5}}, need: []bool{false, false, false}},
		{q: "DELETE FROM TVisited WHERE EXISTS (SELECT fid FROM TEdges e WHERE e.tid = TVisited.nid AND e.fid = ?)", // e.fid = ? probes e
			index: true, source: true, need: []bool{false, false, false}},
		// Otherwise it stays a scan of the target with the EXISTS on each row:
		// no index under the correlation, a correlation that is no equality
		// with the driving table, a subquery that is not one row per row of it,
		// an unqualified column (the target's row takes the subquery's scope).
		{q: "DELETE FROM plain WHERE EXISTS (SELECT fid FROM TEdges e WHERE e.fid = plain.k)", residual: true, need: []bool{true, false}},
		{q: "DELETE FROM TEdges WHERE EXISTS (SELECT k FROM plain m WHERE m.k < TEdges.fid)", residual: true, need: []bool{true, false, false}},
		{q: "DELETE FROM TEdges WHERE fid = 3 AND EXISTS (SELECT k FROM plain m WHERE m.k = TEdges.cost)",
			index: true, residual: true, need: []bool{false, false, true}},
		{q: "DELETE FROM TEdges WHERE EXISTS (SELECT COUNT(*) FROM plain m WHERE m.k = TEdges.fid)", residual: true, need: []bool{true, false, false}},
		{q: "DELETE FROM TEdges WHERE EXISTS (SELECT TOP 1 k FROM plain m WHERE m.k = TEdges.fid)", residual: true, need: []bool{true, false, false}},
		{q: "DELETE FROM TEdges WHERE EXISTS (SELECT k FROM plain m WHERE m.k = fid)", residual: true, need: []bool{true, false, false}},
		{q: "DELETE FROM TEdges WHERE NOT EXISTS (SELECT k FROM plain m WHERE m.k = TEdges.fid)", residual: true, need: []bool{true, false, false}},
	} {
		st, err := sql.Parse(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		var scan baseScan
		p := NewPlanner(cat)
		var dml *PreparedDML
		folds := false
		switch st := st.(type) {
		case *sql.SelectStmt:
			plan := planOf(t, cat, tc.q)
			if agg, ok := unwrap(plan).(*Aggregate); ok {
				folds = agg.Fold != nil
			}
			scan, _ = unwrapAgg(plan).(baseScan)
		case *sql.UpdateStmt:
			dml, err = p.PrepareUpdate(st)
		case *sql.DeleteStmt:
			dml, err = p.PrepareDelete(st)
		case *sql.MergeStmt:
			dml, err = p.PrepareMerge(st)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if dml != nil {
			scan = dml.target
			if (dml.plan != nil) != tc.source {
				t.Errorf("%s: source plan %T", tc.q, dml.plan)
			}
		}
		if scan == nil {
			t.Fatalf("%s: no table scan under the plan", tc.q)
		}
		if _, isIndex := scan.(*IndexEqScan); isIndex != tc.index {
			t.Errorf("%s: access path %T", tc.q, scan)
		}
		s := scan.base()
		var got []pushed
		for _, pp := range s.Pushed {
			got = append(got, pushed{pp.col, pp.sat})
		}
		if !slices.Equal(got, tc.pushed) || (s.Residual != nil) != tc.residual || !slices.Equal(s.Need, tc.need) || folds != tc.folds {
			t.Errorf("%s:\n pushed %v residual %v need %v folds %v\n want   %v residual %v need %v folds %v",
				tc.q, got, s.Residual != nil, s.Need, folds, tc.pushed, tc.residual, tc.need, tc.folds)
		}
	}
}

// unwrapAgg is unwrap that also looks under a global aggregate and down a
// join's outer side.
func unwrapAgg(n Node) Node {
	n = unwrap(n)
	if a, ok := n.(*Aggregate); ok {
		n = unwrap(a.Input)
	}
	if j, ok := n.(*NestedLoopJoin); ok {
		n = unwrap(j.Outer)
	}
	return n
}
