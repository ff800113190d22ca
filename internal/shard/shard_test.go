package shard

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rdb"
)

// islandsGraph builds two disconnected weighted ring-with-chords islands
// so random pairs include reachable, unreachable (cross-island) and
// asymmetric (directed ring) cases.
func islandsGraph(t *testing.T, island int64) *graph.Graph {
	t.Helper()
	n := 2 * island
	var edges []graph.Edge
	for _, base := range []int64{0, island} {
		for i := int64(0); i < island; i++ {
			at := func(off int64) int64 { return base + (i+off)%island }
			edges = append(edges, graph.Edge{From: base + i, To: at(1), Weight: 1 + i%3})
			edges = append(edges, graph.Edge{From: base + i, To: at(5), Weight: 4 + i%4})
			if i%3 == 0 {
				edges = append(edges, graph.Edge{From: base + i, To: at(17), Weight: 11 + i%5})
			}
		}
	}
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refEngine is the unsharded oracle: one engine over the full graph.
func refEngine(t *testing.T, g *graph.Graph, lthd int64) *core.Engine {
	t.Helper()
	db, err := rdb.Open(rdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	e := core.NewEngine(db, core.Options{CacheSize: -1})
	if err := e.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	if lthd > 0 {
		if _, err := e.BuildSegTable(lthd); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// mixedPairs draws count (s, t) pairs: mostly random (some of which cross
// islands and are unreachable), plus guaranteed s==t and cross-island
// entries up front.
func mixedPairs(rng *rand.Rand, n int64, count int) [][2]int64 {
	pairs := make([][2]int64, 0, count)
	half := n / 2
	pairs = append(pairs,
		[2]int64{7 % n, 7 % n},       // s == t
		[2]int64{0, 0},               // s == t at the boundary
		[2]int64{1, half + 1},        // unreachable: island 0 -> 1
		[2]int64{half + 2, 2},        // unreachable: island 1 -> 0
		[2]int64{half - 1, half % n}, // unreachable across the cut
	)
	for len(pairs) < count {
		pairs = append(pairs, [2]int64{rng.Int63n(n), rng.Int63n(n)})
	}
	return pairs
}

// runDifferential compares the sharded coordinator against the unsharded
// engine on every pair: identical Found and Distance, and every sharded
// path must be a real path of exactly that length.
func runDifferential(t *testing.T, g *graph.Graph, ref *core.Engine, se *ShardedEngine,
	alg core.Algorithm, pairs [][2]int64) {
	t.Helper()
	ctx := context.Background()
	for _, pr := range pairs {
		s, tt := pr[0], pr[1]
		want, err := ref.Query(ctx, core.QueryRequest{Source: s, Target: tt, Alg: alg})
		if err != nil {
			t.Fatalf("%v ref (%d,%d): %v", alg, s, tt, err)
		}
		got, err := se.Query(ctx, core.QueryRequest{Source: s, Target: tt, Alg: alg})
		if err != nil {
			t.Fatalf("%v sharded (%d,%d): %v", alg, s, tt, err)
		}
		if got.Found != want.Found {
			t.Fatalf("%v (%d,%d): sharded Found=%v, unsharded %v", alg, s, tt, got.Found, want.Found)
		}
		if got.Distance != want.Distance {
			t.Fatalf("%v (%d,%d): sharded distance %d, unsharded %d", alg, s, tt, got.Distance, want.Distance)
		}
		if !got.Found {
			continue
		}
		nodes := got.Path.Nodes
		if len(nodes) == 0 || nodes[0] != s || nodes[len(nodes)-1] != tt {
			t.Fatalf("%v (%d,%d): bad path endpoints %v", alg, s, tt, nodes)
		}
		if l, ok := g.PathLength(nodes); !ok || l != got.Distance {
			t.Fatalf("%v (%d,%d): path length %d (valid=%v), want %d", alg, s, tt, l, ok, got.Distance)
		}
	}
}

// TestShardedDifferential: >= 200 mixed pairs across every coordinator
// algorithm, shard counts and both partition strategies, against the
// unsharded engine. Runs under -race in CI.
func TestShardedDifferential(t *testing.T) {
	const lthd = 8
	// Two dead ends hang off island 0: sink has no out-edges and src no
	// in-edges, so a search from sink (or toward src) exhausts that side on
	// its first expansion while the other side still has the island to run
	// through. Neither adds a path between island nodes.
	islands := islandsGraph(t, 100)
	sink, src := islands.N, islands.N+1
	g, err := graph.New(islands.N+2, append(islands.Edges,
		graph.Edge{From: 0, To: sink, Weight: 2}, graph.Edge{From: src, To: 3, Weight: 2}))
	if err != nil {
		t.Fatal(err)
	}
	deadEnds := [][2]int64{
		{sink, 5},    // unreachable: the forward side exhausts at once
		{5, src},     // unreachable: the backward side exhausts at once
		{sink, src},  // unreachable: both do
		{src, 150},   // unreachable: neither does until its island is spent
		{src, sink},  // found, through island 0
		{7, sink},    // found
		{sink, sink}, // s == t on a dead end
	}
	ref := refEngine(t, g, lthd)
	rng := rand.New(rand.NewSource(7))

	cases := []struct {
		name  string
		alg   core.Algorithm
		opts  Options
		pairs int        // drawn by mixedPairs over the islands...
		fixed [][2]int64 // ...unless the row names its pairs
	}{
		{"BSDJ/k3/hash", core.AlgBSDJ, Options{Shards: 3}, 60, nil},
		{"BBFS/k3/hash", core.AlgBBFS, Options{Shards: 3}, 40, nil},
		{"BSEG/k3/hash", core.AlgBSEG, Options{Shards: 3, Lthd: lthd}, 60, nil},
		{"BSDJ/k2/range", core.AlgBSDJ, Options{Shards: 2, Strategy: Range}, 20, nil},
		{"BSEG/k4/range", core.AlgBSEG, Options{Shards: 4, Strategy: Range, Lthd: lthd}, 20, nil},
		// Sketch on: the portal bound may answer some pairs outright; the
		// answers must stay exact.
		{"AUTO/k4/hash/sketch", core.AlgAuto, Options{Shards: 4, Lthd: lthd, Portals: 12}, 24, nil},
		// k = 1: the loop with nobody to route to.
		{"BSDJ/k1", core.AlgBSDJ, Options{Shards: 1}, 12, nil},
		{"BSEG/k1", core.AlgBSEG, Options{Shards: 1, Lthd: lthd}, 12, nil},
		// Unreachable targets and one-side-exhausted searches.
		{"BSDJ/k3/dead-ends", core.AlgBSDJ, Options{Shards: 3}, 0, deadEnds},
		{"BBFS/k2/dead-ends", core.AlgBBFS, Options{Shards: 2, Strategy: Range}, 0, deadEnds},
		{"BSEG/k1/dead-ends", core.AlgBSEG, Options{Shards: 1, Lthd: lthd}, 0, deadEnds},
	}
	total := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			se, err := Open(g, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()
			refAlg := tc.alg
			if refAlg == core.AlgAuto {
				refAlg = core.AlgBSEG // what the shard planner resolves to here
			}
			pairs := tc.fixed
			if pairs == nil {
				pairs = mixedPairs(rng, islands.N, tc.pairs)
			}
			runDifferential(t, g, ref, se, refAlg, pairs)
		})
		total += tc.pairs
	}
	if total < 200 {
		t.Fatalf("differential covered %d pairs, want >= 200", total)
	}
}

// TestShardedAuto: AlgAuto on a sharded engine is the engine's own planner,
// reading shard 0's statistics — BSEG when the shard SegTables exist, BSDJ
// otherwise, and the tiny-graph rule below PlannerTinyNodes — recorded in
// Stats.Planner under the labels every engine uses.
func TestShardedAuto(t *testing.T) {
	for _, tc := range []struct {
		island, lthd int64
		want         string
	}{
		{150, 8, core.DecisionBSEG},
		{150, 0, core.DecisionBSDJ},
		{60, 8, core.DecisionTinyBSDJ},
	} {
		se, err := Open(islandsGraph(t, tc.island), Options{Shards: 2, Lthd: tc.lthd})
		if err != nil {
			t.Fatal(err)
		}
		res, err := se.Query(context.Background(), core.QueryRequest{Source: 3, Target: 41})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Planner != tc.want {
			t.Fatalf("%d nodes, lthd=%d: planner %q, want %q", 2*tc.island, tc.lthd, res.Stats.Planner, tc.want)
		}
		se.Close()
	}
}

// TestShardedRejections: unsupported algorithms fail with the typed
// sentinel, out-of-range endpoints fail, BSEG without SegTables fails.
func TestShardedRejections(t *testing.T) {
	g := islandsGraph(t, 40)
	se, err := Open(g, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	ctx := context.Background()
	for _, alg := range []core.Algorithm{core.AlgDJ, core.AlgBDJ, core.AlgALT, core.AlgLabel} {
		_, err := se.Query(ctx, core.QueryRequest{Source: 0, Target: 1, Alg: alg})
		if !errors.Is(err, ErrUnsupportedAlgorithm) {
			t.Fatalf("%v: err = %v, want ErrUnsupportedAlgorithm", alg, err)
		}
	}
	if _, err := se.Query(ctx, core.QueryRequest{Source: 0, Target: 1, Alg: core.AlgBSEG}); err == nil {
		t.Fatal("BSEG without SegTables must fail")
	}
	if _, err := se.Query(ctx, core.QueryRequest{Source: -1, Target: 1}); err == nil {
		t.Fatal("negative source must fail")
	}
	if _, err := se.Query(ctx, core.QueryRequest{Source: 0, Target: g.N}); err == nil {
		t.Fatal("out-of-range target must fail")
	}
}

// TestShardedCancellation: a cancelled context kills the coordinator
// within a superstep and releases every shard's gate (a follow-up query
// succeeds).
func TestShardedCancellation(t *testing.T) {
	g := islandsGraph(t, 80)
	se, err := Open(g, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := se.Query(ctx, core.QueryRequest{Source: 0, Target: 50}); err == nil {
		t.Fatal("cancelled query must fail")
	}
	if _, err := se.Query(context.Background(), core.QueryRequest{Source: 0, Target: 50}); err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
	// A query that dies inside the loop, every shard seated, must give every
	// seat back.
	dying := &dyingCtx{Context: context.Background()}
	dying.left.Store(20)
	if _, err := se.Query(dying, core.QueryRequest{Source: 0, Target: 50}); !errors.Is(err, context.Canceled) {
		t.Fatalf("query cancelled mid-search: err = %v, want context.Canceled", err)
	}
	for i := 0; i < 3; i++ {
		cs := se.Engine(i).ConcurrencyStats()
		if cs.Gate.SharedAdmits != 2 {
			t.Fatalf("shard %d: %d admissions, want 2 (the answered query and the one that died mid-search)", i, cs.Gate.SharedAdmits)
		}
		if cs.Scratch.Live != 0 || cs.Gate.Readers != 0 {
			t.Fatalf("shard %d after cancelled queries: %d live scratch sets, %d readers", i, cs.Scratch.Live, cs.Gate.Readers)
		}
	}
}

// dyingCtx reports cancellation from a fixed number of Err calls on, so a
// query dies at a known depth of its run — past the 2 + k checks that precede
// the first statement — without a timer.
type dyingCtx struct {
	context.Context
	left atomic.Int32
}

func (c *dyingCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestShardedBatchAndStats: the batch surface answers in order and the
// stats counters move.
func TestShardedBatchAndStats(t *testing.T) {
	g := islandsGraph(t, 60)
	se, err := Open(g, Options{Shards: 2, Lthd: 8, Portals: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	reqs := []core.QueryRequest{
		{Source: 0, Target: 30},
		{Source: 5, Target: 5},
		{Source: 2, Target: 90}, // unreachable
	}
	out := se.QueryBatch(context.Background(), reqs, 2)
	if len(out) != 3 {
		t.Fatalf("batch returned %d results", len(out))
	}
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("batch[%d]: %v", i, r.Err)
		}
	}
	if !out[0].Result.Found || !out[1].Result.Found || out[2].Result.Found {
		t.Fatalf("batch found flags: %v %v %v", out[0].Result.Found, out[1].Result.Found, out[2].Result.Found)
	}
	st := se.Stats()
	if st.Supersteps == 0 || st.Shards != 2 || se.QueryErrors() != 0 {
		t.Fatalf("stats did not move: %+v (%d query errors)", st, se.QueryErrors())
	}
	if st.CutEdges == 0 || len(st.PerShard) != 2 {
		t.Fatalf("partition stats missing: %+v", st)
	}
}
