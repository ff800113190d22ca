package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/rdb"
)

// BenchmarkBSDJQuery is one index-free bi-directional search per iteration
// on the hot_bsdj data set (graph.Power(2000,3,2011), whole database
// resident, path cache off): a few hundred statements over ~250 visited
// rows, so B/op and allocs/op are what the executor's scans cost a query;
// stmts/op and pages/op (buffer-pool fetches) count the passes themselves.
func BenchmarkBSDJQuery(b *testing.B) {
	g := graph.Power(2000, 3, 2011)
	e := newTestEngine(b, g, rdb.Options{BufferPoolPages: 16384}, Options{CacheSize: -1})
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int64, 16)
	for i := range pairs {
		pairs[i] = [2]int64{rng.Int63n(g.N), rng.Int63n(g.N)}
	}
	var stmts int
	ask := func(p [2]int64) {
		res, err := e.Query(context.Background(), QueryRequest{Source: p[0], Target: p[1], Alg: AlgBSDJ})
		if err != nil {
			b.Fatal(err)
		}
		stmts += res.Stats.Statements
	}
	for _, p := range pairs { // compile every statement shape before timing
		ask(p)
	}
	stmts = 0
	pool := e.db.Stats().Pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ask(pairs[i%len(pairs)])
	}
	b.StopTimer()
	after := e.db.Stats().Pool
	b.ReportMetric(float64(stmts)/float64(b.N), "stmts/op")
	b.ReportMetric(float64(after.Hits+after.Misses-pool.Hits-pool.Misses)/float64(b.N), "pages/op")
}

// TestWarmQueryAllocs bounds what a warm query allocates, in
// BenchmarkBSDJQuery's shape: every statement compiled and every operator
// instance parked before the count. A query allocated 4829 times while MERGE
// and UPDATE materialized each matched row, ~3090 times once they wrote
// through the leaf their scan read, ~2290 times since the E-operator's
// window keeps one winner per key instead of copying and sorting every
// offer, ~1980 times since the statistics probe and the other MIN, MAX and
// COUNT(*) folds run on the pinned leaf, keeping their result row, and 1756
// times since a leaf cell holds the tuple alone; the bound is that count
// plus 10%. A jump back means some operator allocates per row again.
func TestWarmQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const bound = 1932
	g := graph.Power(2000, 3, 2011)
	e := newTestEngine(t, g, rdb.Options{BufferPoolPages: 16384}, Options{CacheSize: -1})
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int64, 16)
	for i := range pairs {
		pairs[i] = [2]int64{rng.Int63n(g.N), rng.Int63n(g.N)}
	}
	next := 0
	ask := func() {
		p := pairs[next%len(pairs)]
		next++
		if _, err := e.Query(context.Background(), QueryRequest{Source: p[0], Target: p[1], Alg: AlgBSDJ}); err != nil {
			t.Fatal(err)
		}
	}
	for range pairs {
		ask()
	}
	allocs := testing.AllocsPerRun(len(pairs), ask)
	t.Logf("%.0f allocations per warm BSDJ query", allocs)
	if allocs > bound {
		t.Errorf("%.0f allocations per warm BSDJ query, want at most %d", allocs, bound)
	}
}

// BenchmarkColdBSEGQuery is one BSEG search per iteration in cold_bseg's
// shape, the paper's disk regime (§5, Fig 8(b) / 9(g)), scaled down: a
// file-backed database of graph.Power(8000,3,2011) with its SegTable at
// lthd 20 (~290 pages since scratch moved to the temp space, ~340 before),
// a 17-page buffer pool (about a twentieth of the file) and the path cache
// off. Every query misses, evicts and writes scratch pages back to the
// temp space, so B/op and allocs/op include what the pool's misses
// allocate; misses/op counts its physical reads, pages/op every fetch.
func BenchmarkColdBSEGQuery(b *testing.B) {
	const poolPages = 17
	g := graph.Power(8000, 3, 2011)
	path := filepath.Join(b.TempDir(), "cold.db")
	e := newTestEngine(b, g, rdb.Options{Path: path, BufferPoolPages: poolPages}, Options{CacheSize: -1})
	if _, err := e.BuildSegTable(20); err != nil {
		b.Fatal(err)
	}
	if pages := e.db.Pool().Disk().NumPages(); pages < 15*poolPages || pages > 25*poolPages {
		b.Fatalf("the file has %d pages: the %d-page pool is no longer about a twentieth of it", pages, poolPages)
	}
	pairs := graph.RandomQueries(g, 16, 1)
	var stmts int
	ask := func(p [2]int64) {
		res, err := e.Query(context.Background(), QueryRequest{Source: p[0], Target: p[1], Alg: AlgBSEG})
		if err != nil {
			b.Fatal(err)
		}
		stmts += res.Stats.Statements
	}
	for _, p := range pairs { // compile every statement shape before timing
		ask(p)
	}
	stmts = 0
	pool := e.db.Stats().Pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ask(pairs[i%len(pairs)])
	}
	b.StopTimer()
	after := e.db.Stats().Pool
	if after.Misses == pool.Misses {
		b.Fatal("no query missed the pool")
	}
	b.ReportMetric(float64(stmts)/float64(b.N), "stmts/op")
	b.ReportMetric(float64(after.Hits+after.Misses-pool.Hits-pool.Misses)/float64(b.N), "pages/op")
	b.ReportMetric(float64(after.Misses-pool.Misses)/float64(b.N), "misses/op")
}

// BenchmarkMutationBatch is one ApplyMutations batch per iteration on the
// mutate_mix data set (graph.Power(4000,3,2011), SegTable at lthd 20), in
// that workload's batch shape: two edges re-weighted, the two of the round
// before restored, a chord inserted and the chord of two rounds before
// deleted — eight rounds that end on the graph they started from. stmts/batch
// and pages/batch (buffer-pool fetches) say what a batch costs besides time:
// the repair should cost what its touch sets hold, not what the SegTable holds.
func BenchmarkMutationBatch(b *testing.B) {
	const rounds = 8
	g := graph.Power(4000, 3, 2011)
	e := newTestEngine(b, g, rdb.Options{BufferPoolPages: 16384}, Options{CacheSize: -1})
	if _, err := e.BuildSegTable(20); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(len(g.Edges))
	adjacent := map[[2]int64]bool{}
	for _, ed := range g.Edges {
		adjacent[[2]int64{ed.From, ed.To}] = true
	}
	var chords [rounds][2]int64
	for r := range chords {
		for chords[r][0] == chords[r][1] || adjacent[chords[r]] {
			chords[r] = [2]int64{rng.Int63n(g.N), rng.Int63n(g.N)}
		}
		adjacent[chords[r]] = true
	}
	batches := make([][]Mutation, rounds)
	for r := range batches {
		for i := 0; i < 2; i++ {
			ed := g.Edges[perm[2*r+i]]
			batches[r] = append(batches[r], Mutation{Op: MutUpdate, From: ed.From, To: ed.To, Weight: 1 + rng.Int63n(graph.MaxWeight)})
		}
		for i := 0; i < 2; i++ {
			ed := g.Edges[perm[2*((r+rounds-1)%rounds)+i]]
			batches[r] = append(batches[r], Mutation{Op: MutUpdate, From: ed.From, To: ed.To, Weight: ed.Weight})
		}
		old := chords[(r+rounds-2)%rounds]
		batches[r] = append(batches[r],
			Mutation{Op: MutInsert, From: chords[r][0], To: chords[r][1], Weight: 1 + rng.Int63n(20)},
			Mutation{Op: MutDelete, From: old[0], To: old[1]})
	}
	var stmts int
	apply := func(batch []Mutation) {
		st, err := e.ApplyMutations(batch)
		if err != nil {
			b.Fatal(err)
		}
		stmts += st.Statements
	}
	// The first trip compiles every shape; its first two rounds have no
	// chord to delete yet.
	for r, batch := range batches {
		if r < 2 {
			batch = batch[:len(batch)-1]
		}
		apply(batch)
	}
	stmts = 0
	pool := e.db.Stats().Pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apply(batches[i%rounds])
	}
	b.StopTimer()
	after := e.db.Stats().Pool
	b.ReportMetric(float64(stmts)/float64(b.N), "stmts/batch")
	b.ReportMetric(float64(after.Hits+after.Misses-pool.Hits-pool.Misses)/float64(b.N), "pages/batch")
}

// BenchmarkSegTableBuild is one BuildSegTable(20) per iteration on the
// mutate_mix data set (graph.Power(4000,3,2011)): the original-edge fold
// into TOutSegs, the forward index-build sweep over it and the segment
// merge into it, which keeps its tid index. rounds/op counts the sweep's rounds,
// stmts/op the statements (F and E+M a round, and the few around the
// sweep) and pages/op (buffer-pool fetches) their passes over the working
// set.
func BenchmarkSegTableBuild(b *testing.B) {
	g := graph.Power(4000, 3, 2011)
	e := newTestEngine(b, g, rdb.Options{BufferPoolPages: 16384}, Options{CacheSize: -1})
	if _, err := e.BuildSegTable(20); err != nil { // compile every statement shape before timing
		b.Fatal(err)
	}
	var stmts, rounds int
	pool := e.db.Stats().Pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := e.BuildSegTable(20)
		if err != nil {
			b.Fatal(err)
		}
		stmts += st.Statements
		rounds += st.Iterations
	}
	b.StopTimer()
	after := e.db.Stats().Pool
	b.ReportMetric(float64(stmts)/float64(b.N), "stmts/op")
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(after.Hits+after.Misses-pool.Hits-pool.Misses)/float64(b.N), "pages/op")
}

// BenchmarkColdSegTableBuild is one BuildSegTable(20) per iteration in
// cold_bseg's set-up shape, scaled down like BenchmarkColdBSEGQuery: a
// file-backed database of graph.Power(8000,3,2011) behind a 17-page buffer
// pool, about a twentieth of the file. The segment tables outgrow the pool
// and the sweep runs in batches of sources that fit it (batches/op, their
// rounds summed in rounds/op), so misses/op (physical reads) is what a working set inside
// the pool and an access path that follows the clustering save; pages/op
// counts every fetch, file_pages/op is the file's page count after the
// build, the peak the segment tables' unpacked leaves left, and
// temp_pages/op the temp space's, the peak of the build's working set.
func BenchmarkColdSegTableBuild(b *testing.B) {
	const poolPages = 17
	g := graph.Power(8000, 3, 2011)
	path := filepath.Join(b.TempDir(), "cold.db")
	e := newTestEngine(b, g, rdb.Options{Path: path, BufferPoolPages: poolPages}, Options{CacheSize: -1})
	if _, err := e.BuildSegTable(20); err != nil { // compile every statement shape before timing
		b.Fatal(err)
	}
	if pages := e.db.Pool().Disk().NumPages(); pages < 15*poolPages || pages > 25*poolPages {
		b.Fatalf("the file has %d pages: the %d-page pool is no longer about a twentieth of it", pages, poolPages)
	}
	var stmts, batches, rounds int
	pool := e.db.Stats().Pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := e.BuildSegTable(20)
		if err != nil {
			b.Fatal(err)
		}
		stmts += st.Statements
		batches += st.Batches
		rounds += st.Iterations
	}
	b.StopTimer()
	after := e.db.Stats().Pool
	if after.Misses == pool.Misses {
		b.Fatal("no build missed the pool")
	}
	b.ReportMetric(float64(stmts)/float64(b.N), "stmts/op")
	b.ReportMetric(float64(batches)/float64(b.N), "batches/op")
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(e.db.Pool().Disk().NumPages()), "file_pages/op")
	b.ReportMetric(float64(e.db.Stats().Temp.Pages), "temp_pages/op")
	b.ReportMetric(float64(after.Hits+after.Misses-pool.Hits-pool.Misses)/float64(b.N), "pages/op")
	b.ReportMetric(float64(after.Misses-pool.Misses)/float64(b.N), "misses/op")
}
