package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// The snapshot-isolation battery: shared admissions really run in parallel,
// writers drain and exclude readers in the documented order, and mixed
// algorithm traffic stays exact while mutation batches land concurrently.
// Synchronization goes through the engine's test hook and the gate's own
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
		if _, err := e.ApplyMutations([]Mutation{{Op: MutInsert, From: 0, To: 1, Weight: MaxDist / 2}}); err != nil {
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

// TestParallelMixedUnderMutations is the differential stress test: reader
// goroutines running every algorithm family query concurrently WHILE
// mutation batches land, and every answer must be exact for a graph version
// whose lifetime overlapped the query. Run with -race this is the core
// safety argument for retiring the one-slot latch. Its second input is the
// sustained-load profile a served engine sees: every batch also re-weights
// an existing edge, and the engine is durable, so each batch is appended to
// the WAL and fsynced before it applies.
func TestParallelMixedUnderMutations(t *testing.T) {
	t.Run("memory", func(t *testing.T) { mixedUnderMutations(t, false) })
	t.Run("durable+updates", func(t *testing.T) { mixedUnderMutations(t, true) })
}

func mixedUnderMutations(t *testing.T, served bool) {
	const (
		n        = 40
		readers  = 5
		qPerRdr  = 8
		maxState = 64
	)
	// A deterministic ring + chords: every node reaches every other, and
	// the reserved pair (0, 20) — absent from the initial edge set — is a
	// real shortcut when the writer inserts it.
	var init []graph.Edge
	for i := int64(0); i < n; i++ {
		init = append(init, graph.Edge{From: i, To: (i + 1) % n, Weight: 1 + i%7})
		init = append(init, graph.Edge{From: i, To: (i + 7) % n, Weight: 5 + i%11})
	}
	mirror, err := graph.New(n, init)
	if err != nil {
		t.Fatal(err)
	}
	var opts Options
	if served {
		opts.DataDir = t.TempDir()
	}
	e := newTestEngine(t, mirror.Clone(), rdb.Options{}, opts)
	if _, err := e.BuildSegTable(6); err != nil {
		t.Fatal(err)
	}

	// states[i] is the graph after i mutation batches; readers validate
	// their answer against every state whose lifetime overlapped the query.
	// The writer records a state before it applies the batch and counts it
	// in applied after, so states[applied:] holds every graph the engine
	// can serve between the two reads of a reader.
	var stateMu sync.Mutex
	states := []*graph.Graph{mirror.Clone()}
	applied := 0

	done := make(chan struct{})
	// firstBatch closes once the writer has applied its first batch (or
	// given up on it): the readers start behind it, so the run has
	// mutations in it however the goroutines are scheduled.
	firstBatch := make(chan struct{})
	var firstOnce sync.Once
	writerStarted := func() { firstOnce.Do(func() { close(firstBatch) }) }
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		defer writerStarted()
		present := false
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			stateMu.Lock()
			nStates := len(states)
			stateMu.Unlock()
			if nStates > maxState {
				// Keep the MDJ validation window small; the readers only
				// need mutations in flight, not an unbounded history.
				time.Sleep(time.Millisecond)
				continue
			}
			var mut Mutation
			if present {
				if _, err := mirror.DeleteEdge(0, 20); err != nil {
					t.Errorf("writer: mirror delete: %v", err)
					return
				}
				mut = Mutation{Op: MutDelete, From: 0, To: 20}
			} else {
				w := int64(1 + i%5)
				if err := mirror.InsertEdge(0, 20, w); err != nil {
					t.Errorf("writer: mirror insert: %v", err)
					return
				}
				mut = Mutation{Op: MutInsert, From: 0, To: 20, Weight: w}
			}
			present = !present
			batch := []Mutation{mut}
			if served {
				// Walk the ring: edge (u, u+1) takes a new weight.
				u, w := int64(i)%n, int64(1+(i+3)%7)
				if _, err := mirror.UpdateEdgeWeight(u, (u+1)%n, w); err != nil {
					t.Errorf("writer: mirror update: %v", err)
					return
				}
				batch = append(batch, Mutation{Op: MutUpdate, From: u, To: (u + 1) % n, Weight: w})
			}
			stateMu.Lock()
			states = append(states, mirror.Clone())
			stateMu.Unlock()
			if _, err := e.ApplyMutations(batch); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			stateMu.Lock()
			applied++
			stateMu.Unlock()
			writerStarted()
		}
	}()

	algs := []Algorithm{AlgDJ, AlgBDJ, AlgBSDJ, AlgBBFS, AlgBSEG, AlgAuto}
	var wg sync.WaitGroup
	errs := make(chan error, readers*qPerRdr)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-firstBatch
			rnd := rand.New(rand.NewSource(int64(1000 + w)))
			for k := 0; k < qPerRdr; k++ {
				s, tt := rnd.Int63n(n), rnd.Int63n(n)
				alg := algs[(w+k)%len(algs)]
				stateMu.Lock()
				lo := applied
				stateMu.Unlock()
				res, err := e.Query(context.Background(), QueryRequest{Source: s, Target: tt, Alg: alg})
				if err != nil {
					errs <- fmt.Errorf("reader %d query %d (%v %d->%d): %v", w, k, alg, s, tt, err)
					return
				}
				stateMu.Lock()
				window := states[lo:]
				stateMu.Unlock()
				ok := false
				for _, gs := range window {
					ref := graph.MDJ(gs, s, tt)
					if res.Found == ref.Found && (!res.Found || res.Distance == ref.Distance) {
						ok = true
						break
					}
				}
				if !ok {
					errs <- fmt.Errorf("reader %d query %d (%v %d->%d): found=%v dist=%d matches none of %d overlapped versions",
						w, k, alg, s, tt, res.Found, res.Distance, len(window))
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	writerWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := e.ConcurrencyStats()
	if st.Gate.SharedAdmits == 0 {
		t.Error("no shared admissions recorded for read-only queries")
	}
	if st.Gate.ExclusiveAdmits == 0 {
		t.Error("no exclusive admissions recorded for mutation batches")
	}
	if st.Gate.Readers != 0 || st.Gate.WritersWaiting != 0 || st.Gate.WriterActive {
		t.Errorf("gate not quiescent after the run: %+v", st.Gate)
	}
	if st.Scratch.Live != 0 {
		t.Errorf("%d scratch sets still leased after the run", st.Scratch.Live)
	}
	if wal := e.DurabilityStats().WAL; served && (wal.Appends == 0 || wal.Syncs == 0) {
		t.Errorf("durable run logged %d appends, %d fsyncs", wal.Appends, wal.Syncs)
	}
	// The premise of one admission per query: no writer moved the graph
	// version under a shared admission.
	if st.SnapshotRetries != 0 {
		t.Errorf("%d searches saw the graph version move under their shared admission", st.SnapshotRetries)
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
	ref := graph.MDJ(g, 0, 150)
	if !ref.Found {
		if !iv.Unreachable() && iv.UpperKnown() {
			t.Fatalf("unreachable pair got interval [%d, %d]", iv.Lower, iv.Upper)
		}
	} else if iv.Lower > ref.Distance || (iv.UpperKnown() && iv.Upper < ref.Distance) {
		t.Fatalf("interval [%d, %d] does not bracket %d", iv.Lower, iv.Upper, ref.Distance)
	}
}
