package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// The differential suite: every relational algorithm against the in-memory
// Dijkstra reference on random and power-law graphs, explicitly covering
// s==t, unreachable pairs, and re-querying after InsertEdge. checkPath
// verifies Found, the distance, the endpoints, and that the returned node
// sequence is a real path of exactly the shortest length.

// differentialGraphs returns the two workload shapes with one guaranteed
// unreachable node appended (no edges touch it).
func differentialGraphs() map[string]*graph.Graph {
	out := map[string]*graph.Graph{}
	rnd := graph.Random(50, 150, 1234)
	pow := graph.Power(60, 3, 99)
	for name, g := range map[string]*graph.Graph{"random": rnd, "power": pow} {
		widened, err := graph.New(g.N+1, g.Edges) // node g.N is isolated
		if err != nil {
			panic(err)
		}
		out[name] = widened
	}
	return out
}

func TestDifferentialAllAlgorithms(t *testing.T) {
	for name, g := range differentialGraphs() {
		g := g
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t, g, rdb.Options{}, Options{})
			if _, err := e.BuildSegTable(8); err != nil {
				t.Fatalf("segtable: %v", err)
			}
			buildOracle(t, e)
			iso := g.N - 1 // the appended isolated node
			queries := graph.RandomQueries(g, 8, 7)
			queries = append(queries,
				[2]int64{3, 3},     // s == t
				[2]int64{0, iso},   // unreachable target
				[2]int64{iso, 0},   // unreachable source
				[2]int64{iso, iso}, // degenerate on the isolated node
			)
			for _, alg := range allAlgorithms() {
				for _, q := range queries {
					p, _, err := shortestPath(e, alg, q[0], q[1])
					if err != nil {
						t.Fatalf("%v s=%d t=%d: %v", alg, q[0], q[1], err)
					}
					checkPath(t, g, alg, q[0], q[1], p)
				}
			}

			// Insert a shortcut edge between two random-query endpoints and
			// re-run every algorithm: answers must track the new graph
			// (IN particular the oracle must not serve stale ALT bounds).
			u, v := queries[0][0], queries[1][1]
			if _, err := e.InsertEdge(u, v, 1); err != nil {
				t.Fatalf("insert edge: %v", err)
			}
			g2, err := graph.New(g.N, append(append([]graph.Edge{}, g.Edges...),
				graph.Edge{From: u, To: v, Weight: 1}))
			if err != nil {
				t.Fatal(err)
			}
			buildOracle(t, e) // ALT needs a rebuild after the graph change
			for _, alg := range allAlgorithms() {
				for _, q := range queries {
					p, _, err := shortestPath(e, alg, q[0], q[1])
					if err != nil {
						t.Fatalf("post-insert %v s=%d t=%d: %v", alg, q[0], q[1], err)
					}
					checkPath(t, g2, alg, q[0], q[1], p)
				}
			}
		})
	}
}

// TestALTAgainstBSDJ pins the tentpole's exactness claim the long way
// round: on a larger power-law graph, ALT and BSDJ answers agree with the
// reference on every query, and ALT actually prunes (settles candidates
// without expansion), which saves it expansions and — the settling writes
// themselves set aside — tuples. The raw TuplesAffected totals tie by
// construction now that a frontier row is written once (its stamp), not
// twice (mark + reset): a pruned row costs ALT the write an expanded row
// costs BSDJ.
func TestALTAgainstBSDJ(t *testing.T) {
	g := graph.Power(400, 3, 5)
	e := newTestEngine(t, g, rdb.Options{}, Options{CacheSize: -1})
	if _, err := e.BuildOracle(oracle.Config{K: 8, Strategy: oracle.Degree}); err != nil {
		t.Fatal(err)
	}
	queries := graph.RandomQueries(g, 10, 21)
	var altAffected, bsdjAffected, pruned int64
	var altExps, bsdjExps int
	for _, q := range queries {
		pa, qsa, err := shortestPath(e, AlgALT, q[0], q[1])
		if err != nil {
			t.Fatalf("ALT s=%d t=%d: %v", q[0], q[1], err)
		}
		checkPath(t, g, AlgALT, q[0], q[1], pa)
		pb, qsb, err := shortestPath(e, AlgBSDJ, q[0], q[1])
		if err != nil {
			t.Fatalf("BSDJ s=%d t=%d: %v", q[0], q[1], err)
		}
		if pa.Found != pb.Found || (pa.Found && pa.Length != pb.Length) {
			t.Fatalf("ALT and BSDJ disagree on s=%d t=%d: %+v vs %+v", q[0], q[1], pa, pb)
		}
		altAffected += qsa.TuplesAffected
		bsdjAffected += qsb.TuplesAffected
		pruned += qsa.PrunedRows
		altExps += qsa.Expansions
		bsdjExps += qsb.Expansions
	}
	if pruned == 0 {
		t.Error("ALT never pruned a candidate on a power-law workload")
	}
	if altExps >= bsdjExps {
		t.Errorf("ALT should expand less often than BSDJ: %d vs %d expansions", altExps, bsdjExps)
	}
	if altAffected-pruned >= bsdjAffected {
		t.Errorf("ALT's search should affect fewer tuples than BSDJ's: %d (+%d pruned) vs %d", altAffected-pruned, pruned, bsdjAffected)
	}
	t.Logf("expansions: ALT=%d BSDJ=%d; tuples affected: ALT=%d BSDJ=%d (pruned %d candidates)",
		altExps, bsdjExps, altAffected, bsdjAffected, pruned)
}

// TestApproxDistanceBounds is the bracketing property test: for every pair
// of a random workload, Lower <= dist(s,t) <= Upper, an unreachable
// verdict is never wrong, and unreachable pairs never get a finite upper
// bound.
func TestApproxDistanceBounds(t *testing.T) {
	for name, g := range differentialGraphs() {
		g := g
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t, g, rdb.Options{}, Options{})
			for _, strat := range []oracle.Strategy{oracle.Degree, oracle.Farthest} {
				if _, err := e.BuildOracle(oracle.Config{K: 6, Strategy: strat}); err != nil {
					t.Fatal(err)
				}
				iso := g.N - 1
				pairs := graph.RandomQueries(g, 30, 17)
				pairs = append(pairs, [2]int64{2, 2}, [2]int64{0, iso}, [2]int64{iso, 0})
				for _, q := range pairs {
					iv, err := approxDistance(e, q[0], q[1])
					if err != nil {
						t.Fatalf("%v approx s=%d t=%d: %v", strat, q[0], q[1], err)
					}
					ref := graph.MDJ(g, q[0], q[1])
					if ref.Found {
						if iv.Unreachable() {
							t.Fatalf("%v s=%d t=%d: unreachable verdict but dist=%d", strat, q[0], q[1], ref.Distance)
						}
						if iv.Lower > ref.Distance {
							t.Fatalf("%v s=%d t=%d: lower %d > dist %d", strat, q[0], q[1], iv.Lower, ref.Distance)
						}
						if iv.UpperKnown() && iv.Upper < ref.Distance {
							t.Fatalf("%v s=%d t=%d: upper %d < dist %d", strat, q[0], q[1], iv.Upper, ref.Distance)
						}
					} else if iv.UpperKnown() {
						t.Fatalf("%v s=%d t=%d: finite upper %d on an unreachable pair", strat, q[0], q[1], iv.Upper)
					}
					if iv.Lower > iv.Upper {
						t.Fatalf("%v s=%d t=%d: inverted interval [%d, %d]", strat, q[0], q[1], iv.Lower, iv.Upper)
					}
				}
			}
		})
	}
}

// TestApproxConcurrent hammers the latch-free ApproxDistance from many
// goroutines while exact searches, edge inserts and oracle rebuilds run —
// the optimistic version-validation path. Run under -race in CI. The only
// acceptable failures are the explicit "oracle not built" and "graph kept
// changing" refusals during the mutation window.
func TestApproxConcurrent(t *testing.T) {
	g := graph.Power(200, 3, 13)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if _, err := e.BuildOracle(oracle.Config{K: 4}); err != nil {
		t.Fatal(err)
	}
	queries := graph.RandomQueries(g, 8, 5)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := queries[(seed+i)%len(queries)]
				iv, err := approxDistance(e, q[0], q[1])
				if err != nil {
					if !strings.Contains(err.Error(), "BuildOracle") &&
						!strings.Contains(err.Error(), "kept changing") {
						errs <- err
					}
					continue
				}
				if iv.Lower > iv.Upper {
					errs <- fmt.Errorf("inverted interval [%d, %d]", iv.Lower, iv.Upper)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			q := queries[i%len(queries)]
			if _, _, err := shortestPath(e, AlgBSDJ, q[0], q[1]); err != nil {
				errs <- err
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.InsertEdge(1, 100, 2); err != nil {
			errs <- err
		}
		if _, err := e.BuildOracle(oracle.Config{K: 4}); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent approx: %v", err)
	}
}

// TestOracleInvalidation: graph changes must invalidate the oracle so ALT
// and ApproxDistance cannot serve unsound bounds, and a rebuild restores
// them.
func TestOracleInvalidation(t *testing.T) {
	g := graph.Random(30, 90, 3)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if _, err := e.BuildOracle(oracle.Config{K: 3}); err != nil {
		t.Fatal(err)
	}
	if e.Oracle() == nil {
		t.Fatal("oracle should be built")
	}
	if _, err := approxDistance(e, 0, 1); err != nil {
		t.Fatalf("approx before invalidation: %v", err)
	}
	v0 := e.GraphVersion()
	if _, err := e.InsertEdge(0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if e.GraphVersion() == v0 {
		t.Error("InsertEdge must bump the graph version")
	}
	if e.Oracle() != nil {
		t.Error("InsertEdge must invalidate the oracle")
	}
	if _, _, err := shortestPath(e, AlgALT, 0, 1); err == nil {
		t.Error("ALT must refuse to run on an invalidated oracle")
	}
	if _, err := approxDistance(e, 0, 1); err == nil {
		t.Error("ApproxDistance must refuse to run on an invalidated oracle")
	}
	if _, err := e.BuildOracle(oracle.Config{K: 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := shortestPath(e, AlgALT, 0, 1); err != nil {
		t.Errorf("ALT after rebuild: %v", err)
	}
	// LoadGraph also invalidates.
	if err := e.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	if e.Oracle() != nil {
		t.Error("LoadGraph must invalidate the oracle")
	}
}
