package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rdb"
	"repro/internal/sweep"
)

// Scratch-table lifecycle tests: cancellation at any checkpoint leaves the
// catalog exactly as it was, and the pooled table names keep the plan cache
// bounded under query churn.

// catalogNames snapshots the sorted table list.
func catalogNames(e *Engine) []string {
	names := e.DB().Catalog().Names()
	sort.Strings(names)
	return names
}

// TestCancellationLeavesNoScratchTables cancels queries at escalating
// checkpoint counts — from before admission to deep inside the frontier
// loop — with scratchRetain < 0, so every release must DROP the leased
// tables; the catalog must return to its baseline exactly after each abort.
func TestCancellationLeavesNoScratchTables(t *testing.T) {
	g := graph.Power(400, 3, 7)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	e.scratchRetain = -1
	base := catalogNames(e)

	req := QueryRequest{Source: 0, Target: 350, Alg: AlgBSDJ}
	for _, polls := range []int64{0, 1, 2, 3, 5, 8, 13, 21, 34, 55} {
		_, err := e.Query(newCountdownCtx(polls), req)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("polls=%d: want context.Canceled, got %v", polls, err)
		}
		got := catalogNames(e)
		if len(got) != len(base) {
			t.Fatalf("polls=%d: catalog has %d tables, want %d (got %v)", polls, len(got), len(base), got)
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("polls=%d: catalog drifted: got %v, want %v", polls, got, base)
			}
		}
		st := e.ConcurrencyStats()
		if st.Scratch.Live != 0 || st.Scratch.Free != 0 {
			t.Fatalf("polls=%d: scratch pool not empty after abort: %+v", polls, st.Scratch)
		}
		if st.Gate.Readers != 0 {
			t.Fatalf("polls=%d: %d readers leaked", polls, st.Gate.Readers)
		}
	}

	// A query abandoned while queued on the gate (a writer holds it) must
	// also leave nothing behind — it never leased a scratch set.
	if err := e.lockQuery(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Query(ctx, req)
		done <- err
	}()
	waitFor(t, "reader queued behind the exclusive holder", func() bool {
		return e.ConcurrencyStats().Gate.ReadersWaiting == 1
	})
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued reader: want context.Canceled, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("queued reader did not abandon the gate")
	}
	e.unlockQuery()
	if st := e.ConcurrencyStats(); st.Gate.Abandons == 0 {
		t.Error("gate abandon was not counted")
	}
	if got := catalogNames(e); len(got) != len(base) {
		t.Fatalf("queued abandon leaked tables: got %v, want %v", got, base)
	}

	// The engine still works, and a completed query also restores the
	// catalog (retain < 0 drops on every release, not just on abort).
	res, err := e.Query(context.Background(), req)
	if err != nil || !res.Found {
		t.Fatalf("query after cancellations: %v %+v", err, res)
	}
	if got := catalogNames(e); len(got) != len(base) {
		t.Fatalf("completed query left scratch tables: got %v, want %v", got, base)
	}
}

// TestScratchReleaseDropsBeforeRecycle hammers the retain<0 path, where
// every release drops its tables: an id must only become reusable once its
// tables are gone. If release parks the id on freeIDs before dropping, a
// concurrent acquire can recycle it and mint fresh tables that the
// releaser's delayed DROP then destroys, failing the new lease mid-search
// with "table does not exist".
func TestScratchReleaseDropsBeforeRecycle(t *testing.T) {
	g := graph.Power(64, 3, 5)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	e.scratchRetain = -1
	const workers = 8
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				sc, err := e.scratch.acquire()
				if err != nil {
					errs <- fmt.Errorf("acquire: %w", err)
					return
				}
				// Touch every table in the leased set: if a stale drop from a
				// previous holder of this id lands after our create, these
				// statements fail.
				for _, r := range sc.rels {
					if _, err := e.sess.Exec("DELETE FROM " + r.Name); err != nil {
						errs <- fmt.Errorf("leased scratch table vanished: %w", err)
						e.scratch.release(sc)
						return
					}
				}
				e.scratch.release(sc)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := e.scratch.stats(); st.Live != 0 {
		t.Fatalf("scratch pool reports %d live sets after drain", st.Live)
	}
}

// TestPlanCacheBoundedUnderScratchChurn is the regression test for the
// name-poisoning hazard: texts that carry per-instance values — per-query
// table names, literal rows — would mint an unbounded population of plan
// cache entries, and the cache has no bound. Values bind as parameters and
// scratch ids are pooled, so a whole life of the engine — two loads at
// different sizes, the three index builds, BSDJ and BSEG queries on four
// workers, mutation batches, a snapshot and a hydration — issues a finite
// set of texts: the cache holds at most the shapes the run used, the
// scratch ones once per set minted, and a load adds at most two entries
// per relation it fills.
func TestPlanCacheBoundedUnderScratchChurn(t *testing.T) {
	const workers = 4
	dir := t.TempDir()
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db, Options{CacheSize: -1, DataDir: dir})
	t.Cleanup(func() { e.Close() })
	ran := textsRun(e)
	if err := e.LoadGraph(graph.Power(300, 3, 9)); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().PlanCacheEntries
	g := graph.Power(450, 3, 10)
	if err := e.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	// The bulk loader's two shapes for each of TNodes and TEdges.
	if added := db.Stats().PlanCacheEntries - before; g.M() <= 2*insertBatch || added > 2*2 {
		t.Fatalf("a second load of %d edges added %d plan cache entries, want at most 2 a relation", g.M(), added)
	}
	if _, err := e.BuildSegTable(8); err != nil {
		t.Fatal(err)
	}
	buildOracle(t, e)
	buildLabels(t, e)

	pairs := graph.RandomQueries(g, 160, 11)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pairs); i += workers {
				alg := []Algorithm{AlgBSDJ, AlgBSEG}[i%2]
				p := pairs[i]
				if _, err := e.Query(context.Background(), QueryRequest{Source: p[0], Target: p[1], Alg: alg}); err != nil {
					errs <- fmt.Errorf("worker %d %v %d->%d: %v", w, alg, p[0], p[1], err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mirror := g.Clone()
	rnd := rand.New(rand.NewSource(12))
	for b := 0; b < 6; b++ {
		muts := make([]Mutation, 3)
		for i := range muts {
			muts[i] = randomMutation(t, rnd, mirror, mirror.N)
		}
		if _, err := e.ApplyMutations(muts); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The statement path's texts, with the scratch id masked, are the
	// shapes; the session's own are two bulk shapes and a dump read per
	// relation and LoadGraph's wmin probe.
	scratchID := regexp.MustCompile(`_q[0-9]+`)
	perSet, shared := map[string]bool{}, map[string]bool{}
	for text := range ran() {
		if masked := scratchID.ReplaceAllString(text, "_q#"); masked != text {
			perSet[masked] = true
		} else {
			shared[text] = true
		}
	}
	st := db.Stats()
	cs := e.ConcurrencyStats()
	direct := 3*len(sweep.Relations) + 1
	t.Logf("%d plan cache entries: %d scratch shapes, %d sets minted, %d shared shapes; %d hits, %d misses",
		st.PlanCacheEntries, len(perSet), cs.Scratch.Minted, len(shared), st.PlanCacheHits, st.PlanCacheMisses)
	if limit := len(perSet)*int(cs.Scratch.Minted) + len(shared) + direct; st.PlanCacheEntries > limit {
		t.Errorf("plan cache holds %d entries; %d scratch shapes x %d sets minted + %d shared + %d session shapes = %d",
			st.PlanCacheEntries, len(perSet), cs.Scratch.Minted, len(shared), direct, limit)
	}
	if st.PlanCacheHits < st.PlanCacheMisses {
		t.Errorf("plan cache thrashing: %d hits vs %d misses", st.PlanCacheHits, st.PlanCacheMisses)
	}
	if cs.Scratch.Minted > workers+1 {
		t.Errorf("minted %d scratch sets for %d workers: pool reuse is broken", cs.Scratch.Minted, workers)
	}
	if cs.Gate.PeakReaders < 2 {
		t.Errorf("peak readers %d: churn test never overlapped queries", cs.Gate.PeakReaders)
	}

	// A hydration fills every snapshotted relation through the same two
	// shapes each.
	hdb, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := OpenFromSnapshot(hdb, Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	if n := hdb.Stats().PlanCacheEntries; n > 2*len(sweep.Relations) {
		t.Errorf("a hydration left %d plan cache entries, want at most 2 a relation", n)
	}
}
