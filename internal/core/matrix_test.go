package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rdb"
)

// TestConfigurationMatrix runs every algorithm under every combination of
// dialect (NSQL/TSQL), engine profile (DBMS-X/PostgreSQL9/a profile with
// neither MERGE nor window functions), and operator fusion, verifying
// identical answers: the paper's claim that the NSQL and TSQL formulations
// are semantically equivalent (§3.3) and that the PostgreSQL fallback (no
// MERGE) preserves results (§5.2, Fig 8(a)). Every row also runs the other
// clients of the E- and M-operators — Prim's MST, reachability, and the
// SegTable maintenance behind each kind of edge mutation — so a form one of
// them cannot issue on the row's profile fails here (rdb rejects MERGE and
// window functions the profile lacks).
func TestConfigurationMatrix(t *testing.T) {
	g := graph.Random(40, 120, 99)
	queries := graph.RandomQueries(g, 5, 3)
	undirected := directedAsUndirected(graph.Random(20, 40, 7))
	mstWeight, mstComps := kruskalWeight(undirected)

	type cfg struct {
		name    string
		profile rdb.Profile
		opts    Options
	}
	cfgs := []cfg{
		{"nsql-dbmsx", rdb.ProfileDBMSX, Options{}},
		{"nsql-dbmsx-separate", rdb.ProfileDBMSX, Options{SeparateOperators: true}},
		{"tsql-dbmsx", rdb.ProfileDBMSX, Options{TraditionalSQL: true}},
		{"nsql-postgres", rdb.ProfilePostgreSQL9, Options{}},
		{"tsql-postgres", rdb.ProfilePostgreSQL9, Options{TraditionalSQL: true}},
		{"nopruning", rdb.ProfileDBMSX, Options{DisablePruning: true}},
		{"sql92", rdb.Profile{Name: "SQL92"}, Options{}},
	}
	for _, c := range cfgs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			e := newTestEngine(t, g, rdb.Options{Profile: c.profile}, c.opts)
			if _, err := e.BuildSegTable(20); err != nil {
				t.Fatalf("segtable: %v", err)
			}
			buildOracle(t, e)
			for _, alg := range allAlgorithms() {
				for _, q := range queries {
					p, _, err := shortestPath(e, alg, q[0], q[1])
					if err != nil {
						t.Fatalf("%v s=%d t=%d: %v", alg, q[0], q[1], err)
					}
					checkPath(t, g, alg, q[0], q[1], p)
				}
			}

			for _, q := range queries {
				r, err := e.Reachable(q[0], q[1])
				if err != nil {
					t.Fatalf("Reachable(%d, %d): %v", q[0], q[1], err)
				}
				if want := graph.MDJ(g, q[0], q[1]).Found; r.Reachable != want {
					t.Errorf("Reachable(%d, %d) = %v, want %v", q[0], q[1], r.Reachable, want)
				}
			}
			mst, err := newTestEngine(t, undirected, rdb.Options{Profile: c.profile}, c.opts).MinimumSpanningForest()
			if err != nil {
				t.Fatalf("MinimumSpanningForest: %v", err)
			}
			if mst.TotalWeight != mstWeight || mst.Components != mstComps {
				t.Errorf("MST weight %d in %d components, Kruskal says %d in %d",
					mst.TotalWeight, mst.Components, mstWeight, mstComps)
			}

			// One mutation of each kind (a shortcut, a relaxation, a
			// weakening, a deletion), BSEG over the maintained index after
			// each against the mirror.
			mirror := g.Clone()
			down, up, gone := g.Edges[3], g.Edges[17], g.Edges[31]
			for _, m := range []Mutation{
				{Op: MutInsert, From: queries[0][0], To: queries[0][1], Weight: 1},
				{Op: MutUpdate, From: down.From, To: down.To, Weight: 1},
				{Op: MutUpdate, From: up.From, To: up.To, Weight: up.Weight + 50},
				{Op: MutDelete, From: gone.From, To: gone.To},
			} {
				var err, merr error
				switch m.Op {
				case MutInsert:
					_, err = e.InsertEdge(m.From, m.To, m.Weight)
					merr = mirror.InsertEdge(m.From, m.To, m.Weight)
				case MutUpdate:
					_, err = e.UpdateEdgeWeight(m.From, m.To, m.Weight)
					_, merr = mirror.UpdateEdgeWeight(m.From, m.To, m.Weight)
				case MutDelete:
					_, err = e.DeleteEdge(m.From, m.To)
					_, merr = mirror.DeleteEdge(m.From, m.To)
				}
				if err != nil || merr != nil {
					t.Fatalf("%v %d->%d: engine %v, mirror %v", m.Op, m.From, m.To, err, merr)
				}
				for _, q := range queries {
					p, _, err := shortestPath(e, AlgBSEG, q[0], q[1])
					if err != nil {
						t.Fatalf("BSEG after %v: s=%d t=%d: %v", m.Op, q[0], q[1], err)
					}
					checkPath(t, mirror, AlgBSEG, q[0], q[1], p)
				}
			}
		})
	}
}

// TestTraditionalSQLLevel: Options.TraditionalSQL decides the SQL level
// once, for every client of the E- and M-operators. On DBMS-X — which would
// accept anything — an engine opened with it prepares no MERGE and no window
// function across an index build of each kind, a query per algorithm, a
// mutation of each kind, MST and reachability; and it is refused the
// superstep surface, whose piecewise E and M calls are NSQL statements.
func TestTraditionalSQLLevel(t *testing.T) {
	g := graph.Random(40, 120, 99)
	e := newTestEngine(t, g, rdb.Options{Profile: rdb.ProfileDBMSX}, Options{TraditionalSQL: true})
	if _, err := e.BuildSegTable(20); err != nil {
		t.Fatal(err)
	}
	buildOracle(t, e)
	buildLabels(t, e)
	q := graph.RandomQueries(g, 1, 3)[0]
	for _, alg := range append(allAlgorithms(), AlgLabel) {
		p, _, err := shortestPath(e, alg, q[0], q[1])
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkPath(t, g, alg, q[0], q[1], p)
	}
	ed := g.Edges[17]
	if _, err := e.InsertEdge(q[0], q[1], 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.UpdateEdgeWeight(ed.From, ed.To, ed.Weight+50); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeleteEdge(ed.From, ed.To); err != nil {
		t.Fatal(err)
	}
	if _, err := e.MinimumSpanningForest(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Reachable(q[0], q[1]); err != nil {
		t.Fatal(err)
	}
	for text := range e.stmtCache {
		if strings.HasPrefix(text, "MERGE") || strings.Contains(text, "ROW_NUMBER") {
			t.Errorf("TraditionalSQL engine prepared: %s", text)
		}
	}
	if err := e.SetPeers(Peers{Owner: soleOwner}); err == nil {
		t.Error("SetPeers admitted a TraditionalSQL engine")
	}
}

// TestIndexStrategies verifies Fig 8(c)'s three physical designs give the
// same answers.
func TestIndexStrategies(t *testing.T) {
	g := graph.Random(30, 90, 5)
	queries := graph.RandomQueries(g, 4, 11)
	for _, strat := range []IndexStrategy{ClusteredIndex, SecondaryIndex, NoIndex} {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			e := newTestEngine(t, g, rdb.Options{}, Options{Strategy: strat})
			if _, err := e.BuildSegTable(15); err != nil {
				t.Fatalf("segtable: %v", err)
			}
			buildOracle(t, e)
			for _, alg := range allAlgorithms() {
				for _, q := range queries {
					p, _, err := shortestPath(e, alg, q[0], q[1])
					if err != nil {
						t.Fatalf("%v s=%d t=%d: %v", alg, q[0], q[1], err)
					}
					checkPath(t, g, alg, q[0], q[1], p)
				}
			}
		})
	}
}

// TestUnreachableTarget: directed graph where t has no incoming path.
func TestUnreachableTarget(t *testing.T) {
	edges := []graph.Edge{
		{From: 0, To: 1, Weight: 5},
		{From: 1, To: 2, Weight: 5},
		{From: 3, To: 2, Weight: 5}, // node 3 unreachable from 0
	}
	g, err := graph.New(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if _, err := e.BuildSegTable(10); err != nil {
		t.Fatalf("segtable: %v", err)
	}
	buildOracle(t, e)
	for _, alg := range allAlgorithms() {
		p, _, err := shortestPath(e, alg, 0, 3)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if p.Found {
			t.Errorf("%v: found a path to an unreachable node: %+v", alg, p)
		}
	}
}

// TestSourceEqualsTarget: the degenerate s == t query.
func TestSourceEqualsTarget(t *testing.T) {
	g := graph.Random(10, 30, 1)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if _, err := e.BuildSegTable(10); err != nil {
		t.Fatal(err)
	}
	buildOracle(t, e)
	for _, alg := range allAlgorithms() {
		p, _, err := shortestPath(e, alg, 4, 4)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !p.Found || p.Length != 0 || len(p.Nodes) != 1 || p.Nodes[0] != 4 {
			t.Errorf("%v: s==t should yield a zero path, got %+v", alg, p)
		}
	}
}

// TestDirectedAsymmetry: on a directed cycle the s->t and t->s distances
// differ; both directions must be exact.
func TestDirectedAsymmetry(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 -> 0 with increasing weights.
	edges := []graph.Edge{
		{From: 0, To: 1, Weight: 1},
		{From: 1, To: 2, Weight: 2},
		{From: 2, To: 3, Weight: 3},
		{From: 3, To: 0, Weight: 4},
	}
	g, err := graph.New(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if _, err := e.BuildSegTable(5); err != nil {
		t.Fatal(err)
	}
	buildOracle(t, e)
	for _, alg := range allAlgorithms() {
		p, _, err := shortestPath(e, alg, 0, 3)
		if err != nil {
			t.Fatalf("%v 0->3: %v", alg, err)
		}
		if !p.Found || p.Length != 6 {
			t.Errorf("%v: 0->3 expected 6, got %+v", alg, p)
		}
		p, _, err = shortestPath(e, alg, 3, 0)
		if err != nil {
			t.Fatalf("%v 3->0: %v", alg, err)
		}
		if !p.Found || p.Length != 4 {
			t.Errorf("%v: 3->0 expected 4, got %+v", alg, p)
		}
	}
}

// TestBSEGRequiresSegTable: BSEG without a built index must error.
func TestBSEGRequiresSegTable(t *testing.T) {
	g := graph.Random(10, 20, 2)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if _, _, err := shortestPath(e, AlgBSEG, 0, 1); err == nil {
		t.Fatal("expected an error for BSEG without SegTable")
	}
}

// TestStatsShape sanity-checks the collected metrics the experiments rely
// on: BSDJ must use far fewer expansions than DJ; BBFS fewer than BSDJ but
// more visited rows (Table 2/3's relationships).
func TestStatsShape(t *testing.T) {
	g := graph.Power(300, 3, 17)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	queries := graph.RandomQueries(g, 6, 23)
	sum := map[Algorithm]int{}
	vis := map[Algorithm]int{}
	for _, alg := range []Algorithm{AlgDJ, AlgBSDJ, AlgBBFS} {
		for _, q := range queries {
			p, qs, err := shortestPath(e, alg, q[0], q[1])
			if err != nil {
				t.Fatalf("%v: %v", alg, err)
			}
			checkPath(t, g, alg, q[0], q[1], p)
			sum[alg] += qs.Expansions
			vis[alg] += qs.VisitedRows
			if qs.Statements == 0 || qs.Total == 0 {
				t.Errorf("%v: empty stats: %+v", alg, qs)
			}
		}
	}
	if sum[AlgDJ] <= sum[AlgBSDJ] {
		t.Errorf("DJ should need more expansions than BSDJ: %d vs %d", sum[AlgDJ], sum[AlgBSDJ])
	}
	if sum[AlgBBFS] >= sum[AlgBSDJ] {
		t.Errorf("BBFS should need fewer expansions than BSDJ: %d vs %d", sum[AlgBBFS], sum[AlgBSDJ])
	}
	if vis[AlgBBFS] <= vis[AlgBSDJ] {
		t.Errorf("BBFS should visit more nodes than BSDJ: %d vs %d", vis[AlgBBFS], vis[AlgBSDJ])
	}
}

// TestSegTableCorrectness: every recorded segment cost must equal the true
// shortest distance, and SegTable search must preserve distances for every
// pair (δ_G == δ_G'), the property Theorem 3 presumes.
func TestSegTableCorrectness(t *testing.T) {
	g := graph.Random(25, 75, 31)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	st, err := e.BuildSegTable(25)
	if err != nil {
		t.Fatal(err)
	}
	if st.OutSegs == 0 || st.InSegs == 0 {
		t.Fatalf("empty segtable: %+v", st)
	}
	rows, err := e.DB().Query("SELECT fid, tid, cost FROM TOutSegs")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows.Data {
		u, v, c := r[0].I, r[1].I, r[2].I
		ref := graph.MDJ(g, u, v)
		if !ref.Found {
			t.Fatalf("TOutSegs has pair (%d,%d) with no path", u, v)
		}
		if c <= 25 && c != ref.Distance {
			t.Errorf("TOutSegs (%d,%d): cost %d != δ %d", u, v, c, ref.Distance)
		}
		if c > 25 && ref.Distance > c {
			t.Errorf("TOutSegs edge (%d,%d): cost %d below δ %d", u, v, c, ref.Distance)
		}
	}
	// TInSegs costs are distances too.
	rows, err = e.DB().Query("SELECT fid, tid, cost FROM TInSegs")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows.Data {
		u, v, c := r[0].I, r[1].I, r[2].I
		ref := graph.MDJ(g, u, v)
		if !ref.Found {
			t.Fatalf("TInSegs has pair (%d,%d) with no path", u, v)
		}
		if c <= 25 && c != ref.Distance {
			t.Errorf("TInSegs (%d,%d): cost %d != δ %d", u, v, c, ref.Distance)
		}
	}
}

// TestSmallLthdAndUniformWeights covers threshold edge cases: lthd below
// the minimal weight (SegTable degenerates to the edge tables) and a graph
// where every weight is identical.
func TestSmallLthdAndUniformWeights(t *testing.T) {
	edges := []graph.Edge{
		{From: 0, To: 1, Weight: 5}, {From: 1, To: 2, Weight: 5},
		{From: 2, To: 3, Weight: 5}, {From: 0, To: 3, Weight: 5},
		{From: 3, To: 0, Weight: 5}, {From: 2, To: 0, Weight: 5},
	}
	g, err := graph.New(4, edges)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	st, err := e.BuildSegTable(1) // below wmin: no multi-hop segments
	if err != nil {
		t.Fatal(err)
	}
	if st.OutSegs != len(edges) {
		t.Fatalf("lthd<wmin should keep exactly the edges: %d vs %d", st.OutSegs, len(edges))
	}
	buildOracle(t, e)
	for _, alg := range allAlgorithms() {
		p, _, err := shortestPath(e, alg, 0, 3)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !p.Found || p.Length != 5 {
			t.Fatalf("%v: %+v", alg, p)
		}
	}
}

// TestParallelEdges: multigraphs keep the cheapest parallel edge.
func TestParallelEdges(t *testing.T) {
	edges := []graph.Edge{
		{From: 0, To: 1, Weight: 9},
		{From: 0, To: 1, Weight: 3}, // cheaper duplicate
		{From: 1, To: 2, Weight: 4},
	}
	g, err := graph.New(3, edges)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if _, err := e.BuildSegTable(10); err != nil {
		t.Fatal(err)
	}
	buildOracle(t, e)
	for _, alg := range allAlgorithms() {
		p, _, err := shortestPath(e, alg, 0, 2)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !p.Found || p.Length != 7 {
			t.Fatalf("%v should use the cheap parallel edge: %+v", alg, p)
		}
	}
}

// TestDialectStatementCounts verifies the mechanism behind Fig 6(d): the
// traditional dialect issues strictly more statements per expansion than
// the fused window+MERGE form (1 vs 6), and the PostgreSQL fallback sits
// in between (4).
func TestDialectStatementCounts(t *testing.T) {
	g := graph.Random(50, 150, 12)
	q := graph.RandomQueries(g, 1, 5)[0]

	run := func(profile rdb.Profile, traditional bool) (*QueryStats, Path) {
		e := newTestEngine(t, g, rdb.Options{Profile: profile}, Options{TraditionalSQL: traditional})
		p, qs, err := shortestPath(e, AlgBSDJ, q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		return qs, p
	}
	nsql, p1 := run(rdb.ProfileDBMSX, false)
	tsql, p2 := run(rdb.ProfileDBMSX, true)
	pg, p3 := run(rdb.ProfilePostgreSQL9, false)
	if p1.Length != p2.Length || p1.Length != p3.Length {
		t.Fatalf("dialects disagree: %d %d %d", p1.Length, p2.Length, p3.Length)
	}
	if tsql.Statements <= nsql.Statements {
		t.Errorf("TSQL must issue more statements: %d vs %d", tsql.Statements, nsql.Statements)
	}
	if pg.Statements <= nsql.Statements {
		t.Errorf("no-MERGE profile must issue more statements: %d vs %d", pg.Statements, nsql.Statements)
	}
	if tsql.Statements <= pg.Statements {
		t.Errorf("TSQL must issue more statements than the no-MERGE profile: %d vs %d", tsql.Statements, pg.Statements)
	}
}
