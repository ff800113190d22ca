package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
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

// TestWriterDrainsReaders pins the admission order: a writer queued behind
// an in-flight reader waits for it, holds later readers back (writer
// preference), and runs before them once the reader drains.
func TestWriterDrainsReaders(t *testing.T) {
	g := graph.Power(300, 3, 7)
	e := newTestEngine(t, g, rdb.Options{}, Options{CacheSize: -1})

	var seqMu sync.Mutex
	var seq []string
	record := func(s string) {
		seqMu.Lock()
		seq = append(seq, s)
		seqMu.Unlock()
	}

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
		record("r2-search")
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
			return
		}
		record("writer-done")
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

	seqMu.Lock()
	defer seqMu.Unlock()
	want := []string{"writer-done", "r2-search"}
	if len(seq) != len(want) || seq[0] != want[0] || seq[1] != want[1] {
		t.Fatalf("admission order %v, want %v", seq, want)
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
	var stateMu sync.Mutex
	states := []*graph.Graph{mirror.Clone()}

	done := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
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
			if _, err := e.ApplyMutations(batch); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			stateMu.Lock()
			states = append(states, mirror.Clone())
			stateMu.Unlock()
		}
	}()

	algs := []Algorithm{AlgDJ, AlgBDJ, AlgBSDJ, AlgBBFS, AlgBSEG, AlgAuto}
	var wg sync.WaitGroup
	errs := make(chan error, readers*qPerRdr)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(1000 + w)))
			for k := 0; k < qPerRdr; k++ {
				s, tt := rnd.Int63n(n), rnd.Int63n(n)
				alg := algs[(w+k)%len(algs)]
				stateMu.Lock()
				lo := len(states)
				stateMu.Unlock()
				res, err := e.Query(context.Background(), QueryRequest{Source: s, Target: tt, Alg: alg})
				if err != nil {
					errs <- fmt.Errorf("reader %d query %d (%v %d->%d): %v", w, k, alg, s, tt, err)
					return
				}
				stateMu.Lock()
				window := states[lo-1:]
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
}
