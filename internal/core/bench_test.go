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
// rows, so B/op and allocs/op are what the executor's scans cost a query.
func BenchmarkBSDJQuery(b *testing.B) {
	g := graph.Power(2000, 3, 2011)
	e := newTestEngine(b, g, rdb.Options{BufferPoolPages: 16384}, Options{CacheSize: -1})
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int64, 16)
	for i := range pairs {
		pairs[i] = [2]int64{rng.Int63n(g.N), rng.Int63n(g.N)}
	}
	ask := func(p [2]int64) {
		if _, err := e.Query(context.Background(), QueryRequest{Source: p[0], Target: p[1], Alg: AlgBSDJ}); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pairs { // compile every statement shape before timing
		ask(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ask(pairs[i%len(pairs)])
	}
}
