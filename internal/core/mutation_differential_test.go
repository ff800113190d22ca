package core

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// The randomized mutation differential harness: >= 1000 random
// insert/delete/update steps, applied in batches through ApplyMutations
// and mirrored on an in-memory graph, with every relational algorithm
// checked against graph.MDJ after every batch. The seed is logged (and
// overridable via MUTATION_DIFF_SEED) so any failure reproduces exactly.

// mutationDiffSeed returns the harness seed, preferring the environment
// override.
func mutationDiffSeed(t *testing.T, def int64) int64 {
	t.Helper()
	if s := os.Getenv("MUTATION_DIFF_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad MUTATION_DIFF_SEED %q: %v", s, err)
		}
		return v
	}
	return def
}

// randomMutation draws one mutation that is valid against the mirror and
// applies it to the mirror. Deletes and updates target existing pairs;
// when no edges remain the step degrades to an insert.
func randomMutation(t *testing.T, rnd *rand.Rand, mirror *graph.Graph) Mutation {
	t.Helper()
	op := rnd.Intn(10)
	if mirror.M() == 0 {
		op = 0
	}
	switch {
	case op < 4: // insert (40%)
		u := rnd.Int63n(mirror.N)
		v := rnd.Int63n(mirror.N)
		w := 1 + rnd.Int63n(9)
		if err := mirror.InsertEdge(u, v, w); err != nil {
			t.Fatal(err)
		}
		return Mutation{Op: MutInsert, From: u, To: v, Weight: w}
	case op < 7: // delete (30%)
		ed := mirror.Edges[rnd.Intn(mirror.M())]
		if _, err := mirror.DeleteEdge(ed.From, ed.To); err != nil {
			t.Fatal(err)
		}
		return Mutation{Op: MutDelete, From: ed.From, To: ed.To}
	default: // update (30%)
		ed := mirror.Edges[rnd.Intn(mirror.M())]
		w := 1 + rnd.Int63n(9)
		if _, err := mirror.UpdateEdgeWeight(ed.From, ed.To, w); err != nil {
			t.Fatal(err)
		}
		return Mutation{Op: MutUpdate, From: ed.From, To: ed.To, Weight: w}
	}
}

func TestMutationDifferential(t *testing.T) {
	const (
		steps    = 1000
		nodes    = 28
		edges    = 80
		lthd     = 6
		batchMax = 8
	)
	seed := mutationDiffSeed(t, 20260726)
	t.Logf("mutation differential: seed=%d (override with MUTATION_DIFF_SEED), %d steps", seed, steps)
	rnd := rand.New(rand.NewSource(seed))

	// Small weights keep multi-hop segments under lthd common, so the
	// decremental repair is exercised constantly rather than degenerating
	// into single-edge touch sets.
	var init []graph.Edge
	for i := 0; i < edges; i++ {
		u := rnd.Int63n(nodes)
		v := rnd.Int63n(nodes)
		init = append(init, graph.Edge{From: u, To: v, Weight: 1 + rnd.Int63n(9)})
	}
	mirror, err := graph.New(nodes, init)
	if err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, mirror.Clone(), rdb.Options{}, Options{})
	if _, err := e.BuildSegTable(lthd); err != nil {
		t.Fatal(err)
	}

	applied, batches := 0, 0
	for applied < steps {
		k := 1 + rnd.Intn(batchMax)
		if applied+k > steps {
			k = steps - applied
		}
		muts := make([]Mutation, 0, k)
		for i := 0; i < k; i++ {
			muts = append(muts, randomMutation(t, rnd, mirror))
		}
		if _, err := e.ApplyMutations(muts); err != nil {
			t.Fatalf("step %d (batch %v): %v", applied, muts, err)
		}
		applied += k
		batches++

		// Every batch kills the oracle; rebuild a small one so ALT is in
		// the comparison after every batch, per the acceptance criterion.
		if _, err := e.BuildOracle(oracle.Config{K: 2}); err != nil {
			t.Fatalf("step %d: oracle rebuild: %v", applied, err)
		}
		queries := [][2]int64{
			{rnd.Int63n(nodes), rnd.Int63n(nodes)},
			{rnd.Int63n(nodes), rnd.Int63n(nodes)},
		}
		for _, alg := range allAlgorithms() {
			for _, q := range queries {
				p, _, err := shortestPath(e, alg, q[0], q[1])
				if err != nil {
					t.Fatalf("step %d %v s=%d t=%d: %v", applied, alg, q[0], q[1], err)
				}
				checkPath(t, mirror, alg, q[0], q[1], p)
			}
		}
	}

	ms := e.MutationStats()
	t.Logf("applied %d mutations in %d batches: %+v", applied, batches, ms)
	if ms.Inserts+ms.Deletes+ms.Updates != steps {
		t.Errorf("mutation counters disagree with the plan: %+v", ms)
	}
	if ms.SegRepairs == 0 {
		t.Error("the harness never took the scoped decremental repair path")
	}

	// Final invariant: the incrementally maintained index must equal a
	// from-scratch build over the final graph.
	eB := newTestEngine(t, mirror, rdb.Options{}, Options{})
	if _, err := eB.BuildSegTable(lthd); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{TblOutSegs, TblInSegs} {
		inc := segTableSnapshot(t, e, tbl)
		ref := segTableSnapshot(t, eB, tbl)
		if len(inc) != len(ref) {
			t.Fatalf("%s: %d rows vs rebuild %d", tbl, len(inc), len(ref))
		}
		for pair, want := range ref {
			if inc[pair] != want {
				t.Fatalf("%s: pair %v cost %d, rebuild says %d", tbl, pair, inc[pair], want)
			}
		}
		// (fid, tid) is unique: every writer merges on the pair. Maintenance
		// shape 4 rests on it — its join emits each pair once, undeduped.
		dup, err := e.DB().Query("SELECT fid, tid, COUNT(*) FROM " + tbl + " GROUP BY fid, tid HAVING COUNT(*) > 1")
		if err != nil {
			t.Fatal(err)
		}
		if dup.Len() > 0 {
			t.Fatalf("%s: %d (fid, tid) pairs recorded more than once, e.g. %v", tbl, dup.Len(), dup.Data[0])
		}
	}
}

// TestMutationRace drives ApplyMutations concurrently with exact and
// approximate queries under -race. Every concurrent answer must be
// consistent with the pre- or post-batch graph (never a torn mix), and
// once the batch has returned — one version bump later — every fresh
// query must match the post state exactly: no stale cached answer, no
// stale oracle bound.
func TestMutationRace(t *testing.T) {
	pre := graph.Power(150, 3, 77)
	e := newTestEngine(t, pre.Clone(), rdb.Options{}, Options{})
	if _, err := e.BuildSegTable(6); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildOracle(oracle.Config{K: 3}); err != nil {
		t.Fatal(err)
	}

	post := pre.Clone()
	del1, del2 := pre.Edges[10], pre.Edges[40]
	muts := []Mutation{
		{Op: MutInsert, From: 3, To: 120, Weight: 1},
		{Op: MutDelete, From: del1.From, To: del1.To},
		{Op: MutUpdate, From: del2.From, To: del2.To, Weight: del2.Weight + 30},
	}
	if err := post.InsertEdge(3, 120, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := post.DeleteEdge(del1.From, del1.To); err != nil {
		t.Fatal(err)
	}
	if _, err := post.UpdateEdgeWeight(del2.From, del2.To, del2.Weight+30); err != nil {
		t.Fatal(err)
	}

	queries := graph.RandomQueries(pre, 10, 19)
	v0 := e.GraphVersion()
	errs := make(chan error, 128)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			algs := []Algorithm{AlgBSDJ, AlgBSEG}
			for i := 0; i < 20; i++ {
				q := queries[(seed+i)%len(queries)]
				alg := algs[i%len(algs)]
				p, _, err := shortestPath(e, alg, q[0], q[1])
				if err != nil {
					errs <- err
					continue
				}
				refPre := graph.MDJ(pre, q[0], q[1])
				refPost := graph.MDJ(post, q[0], q[1])
				okPre := p.Found == refPre.Found && (!p.Found || p.Length == refPre.Distance)
				okPost := p.Found == refPost.Found && (!p.Found || p.Length == refPost.Distance)
				if !okPre && !okPost {
					errs <- fmt.Errorf("%v s=%d t=%d: %+v matches neither pre (%+v) nor post (%+v)",
						alg, q[0], q[1], p, refPre, refPost)
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				q := queries[(seed+2*i)%len(queries)]
				iv, err := approxDistance(e, q[0], q[1])
				if err != nil {
					// The mutation window legitimately refuses.
					if !strings.Contains(err.Error(), "BuildOracle") &&
						!strings.Contains(err.Error(), "kept changing") {
						errs <- err
					}
					continue
				}
				if iv.Lower > iv.Upper {
					errs <- fmt.Errorf("inverted interval [%d, %d]", iv.Lower, iv.Upper)
					continue
				}
				// The bounds must bracket a real graph state's distance:
				// the oracle is built against exactly one version.
				refPre := graph.MDJ(pre, q[0], q[1])
				refPost := graph.MDJ(post, q[0], q[1])
				brackets := func(ref graph.PathResult) bool {
					if !ref.Found {
						return !iv.UpperKnown()
					}
					return iv.Lower <= ref.Distance && (!iv.UpperKnown() || ref.Distance <= iv.Upper)
				}
				if !brackets(refPre) && !brackets(refPost) {
					errs <- fmt.Errorf("approx s=%d t=%d: [%d, %d] brackets neither graph state", q[0], q[1], iv.Lower, iv.Upper)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.ApplyMutations(muts); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent mutation: %v", err)
	}

	if e.GraphVersion() != v0+1 {
		t.Errorf("batch must bump the version exactly once: %d -> %d", v0, e.GraphVersion())
	}
	// Across the bump: fresh queries must reflect the post state, cache
	// and SegTable included. (The first queries may still be cache hits —
	// that is the point: hits keyed to the new version are post-state.)
	for _, q := range queries {
		for _, alg := range []Algorithm{AlgBSDJ, AlgBSEG} {
			p, _, err := shortestPath(e, alg, q[0], q[1])
			if err != nil {
				t.Fatalf("post-batch %v s=%d t=%d: %v", alg, q[0], q[1], err)
			}
			checkPath(t, post, alg, q[0], q[1], p)
		}
	}
	// The oracle went cold during the batch and must refuse until rebuilt.
	if !e.OracleInvalidated() {
		t.Error("batch must leave the oracle marked cold")
	}
	if _, err := approxDistance(e, queries[0][0], queries[0][1]); err == nil {
		t.Error("ApproxDistance must refuse across the bump until BuildOracle")
	}
	if _, err := e.BuildOracle(oracle.Config{K: 3}); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries[:4] {
		iv, err := approxDistance(e, q[0], q[1])
		if err != nil {
			t.Fatalf("post-rebuild approx: %v", err)
		}
		ref := graph.MDJ(post, q[0], q[1])
		if ref.Found && (iv.Lower > ref.Distance || (iv.UpperKnown() && iv.Upper < ref.Distance)) {
			t.Errorf("post-rebuild approx s=%d t=%d: [%d, %d] does not bracket %d",
				q[0], q[1], iv.Lower, iv.Upper, ref.Distance)
		}
	}
}
