package core

import (
	"context"
	"math/rand"
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
