package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// The cancellation suite: a cancelled context must return ctx.Err() within
// one frontier iteration, leave the query gate free, and cache nothing.

// countdownCtx cancels after a fixed number of Err() polls. The engine
// polls once per frontier iteration and at every statement boundary, so
// this cancels deterministically mid-search — no timing games.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(polls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(polls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func TestQueryCancelledBeforeStart(t *testing.T) {
	g := graph.Power(300, 3, 7)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Query(ctx, QueryRequest{Source: 0, Target: 200, Alg: AlgBSDJ})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The engine is untouched: a fresh query succeeds.
	res, err := e.Query(context.Background(), QueryRequest{Source: 0, Target: 200, Alg: AlgBSDJ})
	if err != nil || !res.Found {
		t.Fatalf("engine unusable after pre-start cancellation: %v %+v", err, res)
	}
}

func TestQueryCancelledMidSearch(t *testing.T) {
	g := graph.Power(400, 3, 7)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	q := QueryRequest{Source: 0, Target: 350, Alg: AlgBSDJ}

	// Enough polls to get well into the frontier loop, far fewer than the
	// search needs to finish.
	_, err := e.Query(newCountdownCtx(40), q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// No cache entry for the aborted query.
	if st := e.CacheStats(); st.Entries != 0 {
		t.Fatalf("aborted query left %d cache entries", st.Entries)
	}
	// The latch is free: the same query completes and only now is cached.
	res, err := e.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
	if res.Stats.CacheHit {
		t.Fatal("aborted query must not have produced a cached answer")
	}
	checkPath(t, g, AlgBSDJ, q.Source, q.Target, res.Path)
	if st := e.CacheStats(); st.Entries != 1 {
		t.Fatalf("completed query should be cached once, entries=%d", st.Entries)
	}
}

func TestQueryDeadline(t *testing.T) {
	g := graph.Power(400, 3, 7)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := e.Query(ctx, QueryRequest{Source: 0, Target: 350, Alg: AlgBSDJ})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}

// TestQueryCancelledWhileQueued: a request still waiting on the query
// latch abandons the queue when its context dies, without disturbing the
// search holding the latch.
func TestQueryCancelledWhileQueued(t *testing.T) {
	g := graph.Power(400, 3, 7)
	e := newTestEngine(t, g, rdb.Options{}, Options{CacheSize: -1})

	// Hold the latch directly (as a long-running search would).
	if err := e.lockQuery(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Query(ctx, QueryRequest{Source: 0, Target: 1, Alg: AlgBSDJ})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the goroutine reach the latch
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued query: want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued query did not abandon the latch wait")
	}
	e.unlockQuery()
	// The latch still works end to end.
	if _, err := e.Query(context.Background(), QueryRequest{Source: 0, Target: 1, Alg: AlgBSDJ}); err != nil {
		t.Fatalf("query after release: %v", err)
	}
}

func TestQueryStatementBudget(t *testing.T) {
	g := graph.Power(400, 3, 7)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	q := QueryRequest{Source: 0, Target: 350, Alg: AlgBSDJ, MaxStatements: 10}
	_, err := e.Query(context.Background(), q)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if st := e.CacheStats(); st.Entries != 0 {
		t.Fatalf("budget-killed query left %d cache entries", st.Entries)
	}
	// Unlimited budget still works, and the s==t trivial case never spends.
	if _, err := e.Query(context.Background(), QueryRequest{Source: 0, Target: 350, Alg: AlgBSDJ}); err != nil {
		t.Fatalf("unbounded query: %v", err)
	}
	res, err := e.Query(context.Background(), QueryRequest{Source: 3, Target: 3, MaxStatements: 1})
	if err != nil || res.Distance != 0 {
		t.Fatalf("trivial query under budget: %v %+v", err, res)
	}
	if _, err := e.Query(context.Background(), QueryRequest{Source: 0, Target: 1, MaxStatements: -1}); err == nil {
		t.Fatal("negative budget must be rejected")
	}

	// A budget is a cap, whatever the loop and wherever it runs out: a
	// query refused for its budget issued no statement past it.
	e = newTestEngine(t, g, rdb.Options{}, Options{CacheSize: -1})
	for _, alg := range []Algorithm{AlgDJ, AlgBDJ, AlgBSDJ, AlgBBFS} {
		for budget := int64(1); budget <= 60; budget++ {
			res, err := e.Query(context.Background(), QueryRequest{Source: 0, Target: 350, Alg: alg, MaxStatements: budget})
			if !errors.Is(err, ErrBudgetExceeded) {
				if err != nil {
					t.Fatalf("%v budget %d: %v", alg, budget, err)
				}
				continue
			}
			if res.Stats == nil || int64(res.Stats.Statements) > budget {
				t.Errorf("%v budget %d: refused after %+v statements", alg, budget, res.Stats)
			}
		}
	}
}

// TestQueryBatchCancellation: cancelling the batch context fails the
// remaining requests fast with ctx.Err() while keeping input order.
func TestQueryBatchCancellation(t *testing.T) {
	g := graph.Power(300, 3, 7)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]QueryRequest, 8)
	for i := range reqs {
		reqs[i] = QueryRequest{Source: 0, Target: int64(100 + i), Alg: AlgBSDJ}
	}
	out := e.QueryBatch(ctx, reqs, 4)
	if len(out) != len(reqs) {
		t.Fatalf("got %d results", len(out))
	}
	for i, r := range out {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("result %d: want context.Canceled, got %v", i, r.Err)
		}
	}
}

// TestBuildsCancelled: index builds abort cleanly and leave the engine
// serving (no partial index is ever consulted).
func TestBuildsCancelled(t *testing.T) {
	g := graph.Power(300, 3, 7)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.BuildSegTableContext(ctx, 20); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildSegTableContext: want context.Canceled, got %v", err)
	}
	if e.SegLthd() != 0 {
		t.Fatal("cancelled build must not register a SegTable")
	}
	if _, err := e.BuildOracleContext(ctx, oracle.Config{K: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildOracleContext: want context.Canceled, got %v", err)
	}
	if e.Oracle() != nil {
		t.Fatal("cancelled build must not register an oracle")
	}
	// Mid-build cancellation (past the latch) also unwinds cleanly — even
	// when it kills a REbuild: the previously built index must go cold
	// (its tables were dropped) instead of serving half-built segments.
	if _, err := e.BuildSegTable(20); err != nil {
		t.Fatal(err)
	}
	if e.SegLthd() != 20 {
		t.Fatal("setup: SegTable should be built")
	}
	cd := newCountdownCtx(25)
	if _, err := e.BuildSegTableContext(cd, 20); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-build cancel: want context.Canceled, got %v", err)
	}
	if e.SegLthd() != 0 {
		t.Fatal("cancelled rebuild must invalidate the previous SegTable")
	}
	if _, err := e.Query(context.Background(), QueryRequest{Source: 0, Target: 200, Alg: AlgBSEG}); err == nil {
		t.Fatal("BSEG must refuse after a cancelled rebuild")
	}
	// The engine still answers exact queries afterwards.
	res, err := e.Query(context.Background(), QueryRequest{Source: 0, Target: 200})
	if err != nil {
		t.Fatalf("query after cancelled builds: %v", err)
	}
	checkPath(t, g, res.Algorithm, 0, 200, res.Path)
}
