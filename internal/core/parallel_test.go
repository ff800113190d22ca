package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// The snapshot-isolation battery: shared admissions really run in parallel,
// and writers drain and exclude readers in the documented order. Mixed
// algorithm traffic beside landing batches, TestParallelMixedUnderMutations,
// is a model script (model_test.go). Synchronization goes through the engine's test hook and the gate's own
// counters — no sleep-and-hope timing.

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadersAdmitInParallel proves N read-only queries hold the search
// section at the same time: every worker must reach the post-admission hook
// before any of them is released. Under the old one-slot latch the first
// reader would block the rest and the rendezvous could never complete.
func TestReadersAdmitInParallel(t *testing.T) {
	const readers = 3
	g := graph.Power(300, 3, 7)
	e := newTestEngine(t, g, rdb.Options{}, Options{CacheSize: -1})

	var mu sync.Mutex
	arrived := 0
	allIn := make(chan struct{})
	release := make(chan struct{})
	e.hookSearchStart = func() {
		mu.Lock()
		arrived++
		if arrived == readers {
			close(allIn)
		}
		mu.Unlock()
		<-release
	}

	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, tt := int64(i), int64(200+i)
			res, err := e.Query(context.Background(), QueryRequest{Source: s, Target: tt, Alg: AlgBSDJ})
			if err != nil {
				errs <- fmt.Errorf("reader %d: %v", i, err)
				return
			}
			ref := graph.MDJ(g, s, tt)
			if res.Found != ref.Found || (res.Found && res.Distance != ref.Distance) {
				errs <- fmt.Errorf("reader %d (%d->%d): got found=%v dist=%d, want found=%v dist=%d",
					i, s, tt, res.Found, res.Distance, ref.Found, ref.Distance)
			}
		}(i)
	}

	select {
	case <-allIn:
	case <-time.After(60 * time.Second):
		close(release)
		t.Fatal("readers never rendezvoused inside the search section: shared admission is not parallel")
	}
	if st := e.ConcurrencyStats(); st.Gate.Readers != readers {
		t.Errorf("at rendezvous: %d concurrent readers, want %d", st.Gate.Readers, readers)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := e.ConcurrencyStats()
	if st.Gate.PeakReaders < readers {
		t.Errorf("peak readers %d, want >= %d", st.Gate.PeakReaders, readers)
	}
	if st.Gate.Readers != 0 {
		t.Errorf("readers leaked: %d still admitted", st.Gate.Readers)
	}
}

// TestReadsRunBesideASearch: reachability and the spanning forest only read
// the graph, so they are admitted shared and lease their own working sets.
// Both must return, and be right, while a search is parked inside its
// admission; were either to take the exclusive gate it would wait for the
// parked reader and the bound below would trip.
func TestReadsRunBesideASearch(t *testing.T) {
	g := directedAsUndirected(graph.Power(200, 3, 7))
	e := newTestEngine(t, g, rdb.Options{}, Options{CacheSize: -1})
	parked, release := make(chan struct{}), make(chan struct{})
	e.hookSearchStart = func() {
		close(parked)
		<-release
	}
	searched := make(chan error, 1)
	go func() {
		_, err := e.Query(context.Background(), QueryRequest{Source: 0, Target: 150, Alg: AlgBSDJ})
		searched <- err
	}()
	<-parked

	read := make(chan error, 1)
	go func() {
		read <- func() error {
			s, tt := int64(3), int64(120)
			r, err := e.Reachable(s, tt)
			if err != nil {
				return fmt.Errorf("Reachable: %v", err)
			}
			if want := graph.MDJ(unitWeights(g), s, tt); r.Reachable != want.Found || int64(r.Hops) != want.Distance {
				return fmt.Errorf("Reachable(%d, %d) = %+v, want found=%v at %d hops", s, tt, r, want.Found, want.Distance)
			}
			mst, err := e.MinimumSpanningForest()
			if err != nil {
				return fmt.Errorf("MinimumSpanningForest: %v", err)
			}
			if want, comps := kruskalWeight(g); mst.TotalWeight != want || mst.Components != comps {
				return fmt.Errorf("MST weight %d in %d components, Kruskal says %d in %d",
					mst.TotalWeight, mst.Components, want, comps)
			}
			return nil
		}()
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(60 * time.Second):
		close(release)
		t.Fatal("Reachable and MinimumSpanningForest never returned beside a parked search: they are not admitted shared")
	}
	close(release)
	if err := <-searched; err != nil {
		t.Errorf("parked search: %v", err)
	}
	if st := e.ConcurrencyStats(); st.Gate.ExclusiveAdmits != 1 || st.Gate.Readers != 0 {
		t.Errorf("gate after the reads: %+v, want only the load exclusive and no reader left", st.Gate)
	}
}

// TestWriterDrainsReaders pins the admission order: a writer queued behind
// an in-flight reader waits for it, holds later readers back (writer
// preference), and runs before them once the reader drains.
func TestWriterDrainsReaders(t *testing.T) {
	g := graph.Power(300, 3, 7)
	e := newTestEngine(t, g, rdb.Options{}, Options{CacheSize: -1})

	// Reader 2 notes the graph version it searches at: past v0 means the
	// writer's batch committed first. (Recording "writer done" after
	// ApplyMutations returns would race reader 2's admission.)
	v0 := e.GraphVersion()
	var r2Version uint64
	r1In := make(chan struct{})
	release1 := make(chan struct{})
	var first atomic.Bool
	first.Store(true)
	e.hookSearchStart = func() {
		if first.CompareAndSwap(true, false) {
			close(r1In)
			<-release1
			return
		}
		r2Version = e.GraphVersion()
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reader 1: parked inside the search section
		defer wg.Done()
		if _, err := e.Query(context.Background(), QueryRequest{Source: 0, Target: 200, Alg: AlgBSDJ}); err != nil {
			t.Errorf("reader 1: %v", err)
		}
	}()
	<-r1In

	wg.Add(1)
	go func() { // writer: must drain reader 1 first
		defer wg.Done()
		// A parallel edge far heavier than any path cannot change an
		// answer, so both readers still compare against the original graph.
		if _, err := e.ApplyMutations([]Mutation{{Op: MutInsert, From: 0, To: 1, Weight: MaxWeight}}); err != nil {
			t.Errorf("writer: %v", err)
		}
	}()
	waitFor(t, "writer queued on the gate", func() bool {
		return e.ConcurrencyStats().Gate.WritersWaiting == 1
	})

	wg.Add(1)
	go func() { // reader 2: arrives after the writer, must be held back
		defer wg.Done()
		res, err := e.Query(context.Background(), QueryRequest{Source: 1, Target: 201, Alg: AlgBSDJ})
		if err != nil {
			t.Errorf("reader 2: %v", err)
			return
		}
		ref := graph.MDJ(g, 1, 201)
		if res.Found != ref.Found || (res.Found && res.Distance != ref.Distance) {
			t.Errorf("reader 2: got found=%v dist=%d, want found=%v dist=%d",
				res.Found, res.Distance, ref.Found, ref.Distance)
		}
	}()
	waitFor(t, "reader 2 held back behind the queued writer", func() bool {
		return e.ConcurrencyStats().Gate.ReadersWaiting == 1
	})

	close(release1) // reader 1 finishes; writer preference decides the rest
	wg.Wait()

	if r2Version <= v0 {
		t.Fatalf("reader 2 searched at graph version %d, before the queued writer's batch (version %d before it)", r2Version, v0)
	}
	st := e.ConcurrencyStats()
	if st.Gate.Drains == 0 {
		t.Error("writer admission should have counted as a drain")
	}
}

// TestDistanceIntervalQueuesBehindWriter: an interval read is an ordinary
// reader. While a writer holds the gate it waits; cancelling its context
// abandons the wait; once the gate is free it answers from the current
// oracle.
func TestDistanceIntervalQueuesBehindWriter(t *testing.T) {
	g := graph.Power(200, 3, 13)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	if _, err := e.BuildOracle(oracle.Config{K: 4}); err != nil {
		t.Fatal(err)
	}
	if err := e.lockQuery(context.Background()); err != nil {
		t.Fatal(err)
	}
	abandons := e.ConcurrencyStats().Gate.Abandons
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.DistanceInterval(ctx, 0, 150)
		done <- err
	}()
	waitFor(t, "DistanceInterval queued on the gate", func() bool {
		select {
		case err := <-done:
			t.Fatalf("DistanceInterval returned (err %v) while a writer held the gate", err)
		default:
		}
		return e.ConcurrencyStats().Gate.ReadersWaiting == 1
	})
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued DistanceInterval: want context.Canceled, got %v", err)
	}
	if got := e.ConcurrencyStats().Gate.Abandons; got != abandons+1 {
		t.Errorf("abandons %d, want %d", got, abandons+1)
	}
	e.unlockQuery()

	iv, err := e.DistanceInterval(context.Background(), 0, 150)
	if err != nil {
		t.Fatalf("DistanceInterval after release: %v", err)
	}
	if err := intervalErr(iv, graph.MDJ(g, 0, 150)); err != nil {
		t.Fatal(err)
	}
}
