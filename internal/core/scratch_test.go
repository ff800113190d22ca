package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rdb"
)

// Scratch-table lifecycle tests: cancellation at any checkpoint leaves the
// catalog exactly as it was, and the pooled table names keep the plan cache
// (and the engine's prepared-statement cache) bounded under query churn.

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
				for _, q := range sc.resets {
					if _, err := e.sess.Exec(q); err != nil {
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
// name-poisoning hazard: per-query table names flowing into statement texts
// could mint an unbounded population of plan-cache (and prepared-handle)
// entries. Pooled ids bound the name space, so thousands of distinct
// queries — across enough workers to keep several scratch sets minted —
// must leave the rdb plan cache under its LRU cap with a healthy hit rate,
// and the engine's own statement cache bounded.
func TestPlanCacheBoundedUnderScratchChurn(t *testing.T) {
	const (
		n       = 48
		workers = 4
	)
	g := graph.Power(n, 3, 9)
	e := newTestEngine(t, g, rdb.Options{}, Options{CacheSize: -1})

	// Every ordered pair once: thousands of distinct queries, no two alike.
	type pair struct{ s, t int64 }
	var pairs []pair
	for s := int64(0); s < n; s++ {
		for tt := int64(0); tt < n; tt++ {
			if s != tt {
				pairs = append(pairs, pair{s, tt})
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pairs); i += workers {
				p := pairs[i]
				if _, err := e.Query(context.Background(), QueryRequest{Source: p.s, Target: p.t, Alg: AlgBSDJ}); err != nil {
					errs <- fmt.Errorf("worker %d pair %d->%d: %v", w, p.s, p.t, err)
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

	st := e.DB().Stats()
	if st.PlanCacheEntries > rdb.DefaultPlanCacheSize {
		t.Errorf("plan cache holds %d entries, cap is %d", st.PlanCacheEntries, rdb.DefaultPlanCacheSize)
	}
	if st.PlanCacheHits < st.PlanCacheMisses {
		t.Errorf("plan cache thrashing: %d hits vs %d misses — scratch names are churning the cache",
			st.PlanCacheHits, st.PlanCacheMisses)
	}
	// White-box: the engine's prepared-handle cache is keyed by statement
	// text; with pooled ids the text population must stay near (number of
	// shapes) x (sets ever minted), far below the query count.
	e.stmtMu.RLock()
	handles := len(e.stmtCache)
	e.stmtMu.RUnlock()
	cs := e.ConcurrencyStats()
	if limit := 80 * int(cs.Scratch.Minted+1); handles > limit {
		t.Errorf("%d prepared handles for %d minted scratch sets (limit %d): statement texts are not pooled",
			handles, cs.Scratch.Minted, limit)
	}
	if cs.Scratch.Minted > workers+1 {
		t.Errorf("minted %d scratch sets for %d workers: pool reuse is broken", cs.Scratch.Minted, workers)
	}
	if cs.Gate.PeakReaders < 2 {
		t.Errorf("peak readers %d: churn test never overlapped queries", cs.Gate.PeakReaders)
	}
}
