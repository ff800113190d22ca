package exec

import (
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
