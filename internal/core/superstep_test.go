package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// TestNoGraphSentinel: an engine with nothing loaded refuses queries and a
// peer set with the typed ErrNoGraph, so callers branch with errors.Is
// instead of matching message text.
func TestNoGraphSentinel(t *testing.T) {
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	e := NewEngine(db, Options{})
	_, err = e.Query(context.Background(), QueryRequest{Source: 0, Target: 1})
	if !errors.Is(err, ErrNoGraph) {
		t.Fatalf("Query on empty engine: err = %v, want ErrNoGraph", err)
	}
	if err := e.SetPeers(Peers{Owner: soleOwner}); !errors.Is(err, ErrNoGraph) {
		t.Fatalf("SetPeers on empty engine: err = %v, want ErrNoGraph", err)
	}
}

// TestSuperstepUnsupportedAlg: a coordinating engine rejects the hints whose
// machinery cannot fan out across partitions, with their own sentinel, and
// still plans AlgAuto.
func TestSuperstepUnsupportedAlg(t *testing.T) {
	e := newLineEngine(t, 4)
	if err := e.SetPeers(Peers{Owner: soleOwner, Edges: e.Edges()}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, alg := range []Algorithm{AlgDJ, AlgBDJ, AlgALT, AlgLabel} {
		_, err := e.Query(ctx, QueryRequest{Source: 0, Target: 3, Alg: alg})
		if !errors.Is(err, ErrUnsupportedSuperstep) {
			t.Fatalf("Query(%v): err = %v, want ErrUnsupportedSuperstep", alg, err)
		}
	}
	// A rejected query must not leak a gate admission.
	if cs := e.ConcurrencyStats(); cs.Gate.Readers != 0 || cs.Scratch.Live != 0 {
		t.Fatalf("after rejected hints: %d readers, %d live scratch sets", cs.Gate.Readers, cs.Scratch.Live)
	}
	res, err := e.Query(ctx, QueryRequest{Source: 0, Target: 3})
	if err != nil || res.Distance != 9 || res.Stats.Planner != DecisionTinyBSDJ {
		t.Fatalf("auto on a coordinator: %+v, %v", res, err)
	}
}

// TestSuperstepMatchesQuery runs the FEM loop over one admitted handle —
// the way a coordinator seats a peer — and checks it does
// exactly what Engine.Query does over the handle it builds itself: same
// path, same iterations, same statements. Two handles on the same engine
// with the nodes split between them must still find the same distance.
func TestSuperstepMatchesQuery(t *testing.T) {
	e := newLineEngine(t, 24)
	ctx := context.Background()
	want, err := e.Query(ctx, QueryRequest{Source: 2, Target: 19, Alg: AlgBSDJ})
	if err != nil {
		t.Fatal(err)
	}

	begin := func() *superstep {
		ss, err := e.admit(ctx, AlgBSDJ, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ss.release)
		return ss
	}
	p, qs, err := runSupersteps(ctx, []*superstep{begin()}, soleOwner, 2, 19)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.Nodes, want.Path.Nodes) || p.Length != want.Distance {
		t.Fatalf("one handle: path %v (%d), Query found %v (%d)", p.Nodes, p.Length, want.Path.Nodes, want.Distance)
	}
	if qs.Iterations != want.Stats.Iterations || qs.Statements != want.Stats.Statements {
		t.Fatalf("one handle: %d iterations / %d statements, Query took %d / %d",
			qs.Iterations, qs.Statements, want.Stats.Iterations, want.Stats.Statements)
	}

	p, qs, err = runSupersteps(ctx, []*superstep{begin(), begin()}, func(nid int64) int { return int(nid % 2) }, 2, 19)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.Nodes, want.Path.Nodes) || p.Length != want.Distance {
		t.Fatalf("two handles: path %v (%d), Query found %v (%d)", p.Nodes, p.Length, want.Path.Nodes, want.Distance)
	}
	if qs.Exchanged == 0 {
		t.Fatal("two handles over a line must exchange candidates")
	}
}

// TestLoopStatisticsMatchFullScan is the soundness argument for what the loop
// no longer asks the database, checked on every iteration of TestFEMParity's
// graph and pairs: after every statistics fold the running minCost equals
// MIN(d2s + d2t) over every row of every handle (the probes only ever saw
// candidates) and both frontier minima equal MIN(d) over the candidates (the
// loop binds them into the next F instead of a subquery); before every F no
// row carries the stamp about to be written (nothing resets a stamp, so a
// reused one would re-expand an old frontier). All five algorithms on one
// handle; BSDJ, BBFS and BSEG — what a peer set admits — over the two
// partitions shard.Open makes at k = 2, rebuilt here because this package
// cannot import that one: hash ownership, each partition holding its nodes'
// out-edges plus a mirror of every cut edge into them, a SegTable each.
func TestLoopStatisticsMatchFullScan(t *testing.T) {
	const lthd = 30
	g := graph.Power(400, 3, 11)
	pairs := graph.RandomQueries(g, 6, 5)
	// The loop runs below the boundary, in internal ids: every engine loads
	// in the whole graph's order, as shard.Open's do.
	toInt, toExt := graph.LocalityOrder(g)
	build := func(edges []graph.Edge) *Engine {
		sub, err := graph.New(g.N, edges)
		if err != nil {
			t.Fatal(err)
		}
		db, err := rdb.Open(rdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		e := NewEngine(db, Options{CacheSize: -1})
		if err := e.LoadPartition(sub, toInt, toExt); err != nil {
			t.Fatal(err)
		}
		if _, err := e.BuildSegTable(lthd); err != nil {
			t.Fatal(err)
		}
		return e
	}
	single := build(g.Edges)
	buildOracle(t, single)
	parity := func(nid int64) int { return int(nid % 2) }
	var split [2][]graph.Edge
	for _, ed := range g.Edges {
		from, to := parity(ed.From), parity(ed.To)
		split[from] = append(split[from], ed)
		if to != from {
			split[to] = append(split[to], ed)
		}
	}
	peers := []*Engine{build(split[0]), build(split[1])}

	run := func(name string, engines []*Engine, owner func(int64) int, alg Algorithm, ext [2]int64) {
		p := [2]int64{toInt[ext[0]], toInt[ext[1]]}
		var hs []*superstep
		for _, e := range engines {
			sc, err := e.scratch.acquire()
			if err != nil {
				t.Fatal(err)
			}
			defer e.scratch.release(sc)
			spec, err := e.specFor(alg, sc, p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, e.newSuperstep(sc, spec, 0))
		}
		// scan folds "SELECT <sel> FROM <visited> <where>" over the handles
		// by minimum; MaxInt64 when every handle answers NULL.
		scan := func(sel, where string, args ...any) int64 {
			m := int64(math.MaxInt64)
			for _, h := range hs {
				v, null, err := h.e.db.QueryInt("SELECT "+sel+" FROM "+h.sc.visited+where, args...)
				if err != nil {
					t.Fatal(err)
				}
				if !null {
					m = min(m, v)
				}
			}
			return m
		}
		folds, marks := 0, 0
		hs[0].observe = func(forward bool, mark, lf, lb, minCost int64) {
			if mark != 0 {
				marks++
				sign := map[bool]string{true: "f", false: "b"}[forward]
				if n := scan("MAX(nid)", " WHERE "+sign+" = ?", mark); n != math.MaxInt64 {
					t.Errorf("%s %v (%d,%d): node %d already carries %s = %d before the F that writes it", name, alg, p[0], p[1], n, sign, mark)
				}
				return
			}
			folds++
			if full := scan("MIN(d2s + d2t)", ""); full != minCost {
				t.Errorf("%s %v (%d,%d) fold %d: running minCost %d, full scan %d", name, alg, p[0], p[1], folds, minCost, full)
			}
			// An exhausted side (no candidate anywhere) keeps its last minimum.
			if full := scan("MIN(d2s)", " WHERE f = 0"); full != math.MaxInt64 && full != lf {
				t.Errorf("%s %v (%d,%d) fold %d: lf %d, full scan %d", name, alg, p[0], p[1], folds, lf, full)
			}
			if full := scan("MIN(d2t)", " WHERE b = 0"); full != math.MaxInt64 && full != lb {
				t.Errorf("%s %v (%d,%d) fold %d: lb %d, full scan %d", name, alg, p[0], p[1], folds, lb, full)
			}
		}
		got, _, err := runSupersteps(context.Background(), hs, owner, p[0], p[1])
		if err != nil {
			t.Fatalf("%s %v (%d,%d): %v", name, alg, p[0], p[1], err)
		}
		got.Nodes = order{toInt, toExt}.external(got.Nodes)
		checkPath(t, g, alg, ext[0], ext[1], got)
		if folds == 0 || marks == 0 {
			t.Fatalf("%s %v (%d,%d): the loop never reported (%d folds, %d marks)", name, alg, p[0], p[1], folds, marks)
		}
	}
	for _, p := range pairs {
		for _, alg := range []Algorithm{AlgBDJ, AlgBSDJ, AlgBBFS, AlgBSEG, AlgALT} {
			run("single", []*Engine{single}, soleOwner, alg, p)
		}
		for _, alg := range []Algorithm{AlgBSDJ, AlgBBFS, AlgBSEG} {
			run("k=2", peers, func(nid int64) int { return parity(toExt[nid]) }, alg, p)
		}
	}
}

// newLineEngine loads a directed weighted line 0->1->...->n-1 (weight 3).
func newLineEngine(t *testing.T, n int64) *Engine {
	t.Helper()
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	e := NewEngine(db, Options{})
	if err := e.LoadGraph(lineGraph(t, n, 3)); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPartitionedRefusals: every member of a peer set refuses each entry
// point that needs the whole graph with ErrPartitioned, before issuing a
// statement; the coordinator still answers queries over both members, and a
// query put to the other member is refused too.
func TestPartitionedRefusals(t *testing.T) {
	// Both members hold the whole line (every edge mirrored), nodes split by
	// parity: a legal partitioning that keeps the fixture one graph.
	e, peer := newLineEngine(t, 12), newLineEngine(t, 12)
	if err := e.SetPeers(Peers{Others: []*Engine{peer}, Owner: func(nid int64) int { return int(nid % 2) }, Edges: 11}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetPeers(Peers{Owner: soleOwner}); err == nil {
		t.Fatal("a second SetPeers on a member must fail")
	}
	ctx := context.Background()
	for _, m := range []*Engine{e, peer} {
		before := m.DB().Stats().Statements
		for name, call := range map[string]func() error{
			"LoadGraph":             func() error { return m.LoadGraph(lineGraph(t, 12, 3)) },
			"BuildSegTable":         func() error { _, err := m.BuildSegTable(6); return err },
			"BuildOracle":           func() error { _, err := m.BuildOracle(oracle.Config{K: 2}); return err },
			"BuildLabels":           func() error { _, err := m.BuildLabels(); return err },
			"ApplyMutations":        func() error { _, err := m.ApplyMutations([]Mutation{{Op: MutDelete, From: 0, To: 1}}); return err },
			"InsertEdge":            func() error { _, err := m.InsertEdge(0, 5, 1); return err },
			"DeleteEdge":            func() error { _, err := m.DeleteEdge(0, 1); return err },
			"UpdateEdgeWeight":      func() error { _, err := m.UpdateEdgeWeight(0, 1, 9); return err },
			"Snapshot":              func() error { _, err := m.Snapshot(ctx); return err },
			"Hydrate":               m.Hydrate,
			"MinimumSpanningForest": func() error { _, err := m.MinimumSpanningForest(); return err },
			"Reachable":             func() error { _, err := m.Reachable(0, 5); return err },
			"DistanceInterval":      func() error { _, err := m.DistanceInterval(ctx, 0, 5); return err },
		} {
			if err := call(); !errors.Is(err, ErrPartitioned) {
				t.Errorf("%s on a member: err = %v, want ErrPartitioned", name, err)
			}
		}
		if after := m.DB().Stats().Statements; after != before {
			t.Errorf("refusals issued %d statements", after-before)
		}
	}
	if _, err := peer.Query(ctx, QueryRequest{Source: 0, Target: 5}); !errors.Is(err, ErrPartitioned) {
		t.Errorf("Query on a non-coordinating member: err = %v, want ErrPartitioned", err)
	}
	res, err := e.Query(ctx, QueryRequest{Source: 1, Target: 10, Alg: AlgBSDJ})
	if err != nil || res.Distance != 27 || res.Stats.Exchanged == 0 {
		t.Fatalf("coordinator query: %+v, %v", res, err)
	}
	if steps, exchanged := e.ExchangeStats(); steps != uint64(res.Stats.Iterations) || exchanged != uint64(res.Stats.Exchanged) {
		t.Errorf("ExchangeStats = %d, %d; the one search took %d supersteps and routed %d", steps, exchanged, res.Stats.Iterations, res.Stats.Exchanged)
	}
	if e.Edges() != 11 {
		t.Errorf("coordinator Edges() = %d, want the whole graph's 11", e.Edges())
	}
}
