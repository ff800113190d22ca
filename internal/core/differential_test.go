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

// The oracle's differentials: ALT against BSDJ and the reference, the
// bracketing property of DistanceInterval, under concurrent writers, and
// oracle invalidation. Every algorithm against the in-memory reference is
// the model's query move (model_test.go).

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
	if _, err := e.BuildOracle(oracle.Config{K: 8}); err != nil {
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
			if _, err := e.BuildOracle(oracle.Config{K: 6}); err != nil {
				t.Fatal(err)
			}
			iso := g.N - 1
			pairs := graph.RandomQueries(g, 30, 17)
			pairs = append(pairs, [2]int64{2, 2}, [2]int64{0, iso}, [2]int64{iso, 0})
			for _, q := range pairs {
				iv, err := approxDistance(e, q[0], q[1])
				if err != nil {
					t.Fatalf("approx s=%d t=%d: %v", q[0], q[1], err)
				}
				if err := intervalErr(iv, graph.MDJ(g, q[0], q[1])); err != nil {
					t.Fatalf("s=%d t=%d: %v", q[0], q[1], err)
				}
			}
		})
	}
}

// TestApproxConcurrent hammers DistanceInterval from many goroutines while
// exact searches, edge inserts and oracle rebuilds run. Run under -race in
// CI. Interval reads share the gate with searches and queue behind the
// writers, so the only acceptable failure is the explicit "oracle not
// built" refusal between the insert and the rebuild.
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
					if !strings.Contains(err.Error(), "BuildOracle") {
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
// and DistanceInterval cannot serve unsound bounds, and a rebuild restores
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
		t.Error("DistanceInterval must refuse to run on an invalidated oracle")
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
