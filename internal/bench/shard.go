package bench

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rdb"
	"repro/internal/shard"
)

// The sharding benchmark: the same cold, seek-bound regime as the parallel
// sweep (evicted pools, 15ms per page transfer), but run on the bench
// power-law graph — Barabási–Albert attachment with unit weights, so
// distances are hop counts and each superstep's frontier is a whole BFS
// level of hub-scattered nodes. That is the workload partition parallelism
// targets: hash partitioning spreads every frontier across all shards, and
// each shard's E-operator pages in its slice of the edge table concurrently
// while the single engine fetches the same pages serially inside one
// statement. (The segmented-ring workload of the parallel sweep is the
// opposite regime — a near-singleton weighted frontier leaves nothing to
// fan out and only prices coordination.) The comparison is a single engine
// against partition-parallel ShardedEngines at k = 1, 2, 4. Every
// configuration serves the same pairs with the same
// client count, and every shard gets the same buffer-pool budget as the
// single engine — each shard models one machine of a scale-out deployment,
// so aggregate memory grows with k exactly as it would across real nodes.
// The sharded rows then isolate what partitioning buys: per-superstep scans
// touch only the owner shard's (roughly 1/k-sized) visited table, and the
// frontier-exchange fan-out overlaps page waits across shards. The k=1 row
// has resources identical to the baseline and runs the same loop over one
// handle, so it should read as the baseline; k=2 and k=4 first pay for the
// exchange (materialize, harvest, route, inject) and must win that back.
// No portal sketch is built — the headline numbers come from the superstep
// protocol alone.
//
// The pool is sized so the graph's hot working set does NOT fit one
// machine (5.8k pages loaded vs 256 per engine): the single engine pays a
// serial page wait per edge-index probe inside each expansion statement,
// while k >= 2 engines overlap waits two ways — across shards (the
// exchange fan-out) and within each shard (frontier prefetch warms the
// adjacency pages with concurrent probes before the expansion scans them).
//
// Each sharded result is checked against the single-engine distances
// before it is reported: a speedup with wrong answers is not a speedup.

// shardBenchLthd is 1, not the 20 the weighted benches use: SegTable
// construction is an all-sources Dijkstra bounded by lthd, and on a
// unit-weight power-law graph radius 20 covers nearly every (u,v) pair —
// O(n^2) segments. Radius 1 is the analog of the weighted benches'
// ~1-hop-deep setting (avg weight 50, lthd 20).
const (
	shardBenchPool    = 256
	shardBenchSeek    = 15 * time.Millisecond
	shardBenchLthd    = 1
	shardBenchClients = 4
)

// RunShard measures cold sharded QPS against the single-engine baseline.
func RunShard(c Config) (*Table, error) {
	n := c.scale(12288)
	g, err := unitPowerGraph(n)
	if err != nil {
		return nil, err
	}
	pairs := graph.RandomQueries(g, c.queries(), 7)

	// Load and index at memory speed; the seek cost is armed per engine
	// just before its measured phase.
	c.logf("shard: baseline engine (n=%d, pool=%d, seek=%v)", n, shardBenchPool, shardBenchSeek)
	db, err := rdb.Open(rdb.Options{BufferPoolPages: shardBenchPool})
	if err != nil {
		return nil, err
	}
	base := core.NewEngine(db, core.Options{CacheSize: -1})
	defer base.Close()
	if err := base.LoadGraph(g); err != nil {
		return nil, err
	}
	if _, err := base.BuildSegTable(shardBenchLthd); err != nil {
		return nil, err
	}
	db.SetSimulatedIOLatency(shardBenchSeek)

	shardKs := []int{1, 2, 4}
	engines := make([]*shard.ShardedEngine, len(shardKs))
	for i, k := range shardKs {
		c.logf("shard: opening %d-shard engine", k)
		// Options.BufferPoolPages is the total split across shards; pass
		// k pools so each shard carries the single-engine machine profile.
		se, err := shard.Open(g, shard.Options{
			Shards:          k,
			Lthd:            shardBenchLthd,
			BufferPoolPages: k * shardBenchPool,
		})
		if err != nil {
			return nil, err
		}
		defer se.Close()
		se.SetSimulatedIOLatency(shardBenchSeek)
		engines[i] = se
	}

	tab := &Table{
		ID: "shard",
		Title: fmt.Sprintf("Partition-parallel FEM: cold QPS vs single engine, %d-node unit-weight power-law graph (%d random pairs, %d clients), pool=%d pages per engine, seek=%v",
			n, len(pairs), shardBenchClients, shardBenchPool, shardBenchSeek),
		Header: []string{"alg", "engine", "queries", "time", "queries/sec", "p50", "p99", "speedup", "supersteps", "exchanged"},
	}
	for _, alg := range []core.Algorithm{core.AlgBSDJ, core.AlgBSEG} {
		// Baseline: the unsharded engine under the read gate, same clients.
		if err := db.Pool().EvictAll(); err != nil {
			return nil, err
		}
		io0 := db.Stats().IO
		want, bm, err := measureShardLevel(pairs, func(ctx context.Context, s, t int64) (core.QueryResult, error) {
			return base.Query(ctx, core.QueryRequest{Source: s, Target: t, Alg: alg})
		})
		if err != nil {
			return nil, err
		}
		io1 := db.Stats().IO
		c.logf("shard: %v single: %.1f queries/sec (p50 %v, p99 %v) reads=%d readDelay=%v", alg, bm.qps, bm.p50, bm.p99, io1.Reads-io0.Reads, io1.ReadDelay-io0.ReadDelay)
		tab.Rows = append(tab.Rows, []string{
			alg.String(), "single", fmt.Sprint(len(pairs)), ms(bm.dur),
			fmt.Sprintf("%.1f", bm.qps), bm.p50.Round(time.Microsecond).String(), bm.p99.Round(time.Microsecond).String(),
			"1.0x", "-", "-",
		})

		for i, k := range shardKs {
			se := engines[i]
			if err := se.EvictAll(); err != nil {
				return nil, err
			}
			st0 := se.Stats()
			sio0 := shardIOTotals(se, k)
			got, sm, err := measureShardLevel(pairs, func(ctx context.Context, s, t int64) (core.QueryResult, error) {
				return se.Query(ctx, core.QueryRequest{Source: s, Target: t, Alg: alg})
			})
			if err != nil {
				return nil, err
			}
			sio1 := shardIOTotals(se, k)
			for q := range pairs {
				if got[q] != want[q] {
					return nil, fmt.Errorf("shard: %v k=%d pair (%d,%d): distance %d, single engine says %d",
						alg, k, pairs[q][0], pairs[q][1], got[q], want[q])
				}
			}
			st1 := se.Stats()
			speedup := 0.0
			if bm.qps > 0 {
				speedup = sm.qps / bm.qps
			}
			c.logf("shard: %v k=%d: %.1f queries/sec (p50 %v, p99 %v, %.1fx) reads=%d readDelay=%v", alg, k, sm.qps, sm.p50, sm.p99, speedup, sio1.reads-sio0.reads, sio1.delay-sio0.delay)
			tab.Rows = append(tab.Rows, []string{
				alg.String(), fmt.Sprintf("%d-shard", k), fmt.Sprint(len(pairs)), ms(sm.dur),
				fmt.Sprintf("%.1f", sm.qps), sm.p50.Round(time.Microsecond).String(), sm.p99.Round(time.Microsecond).String(),
				fmt.Sprintf("%.1fx", speedup),
				fmt.Sprint(st1.Supersteps - st0.Supersteps),
				fmt.Sprint(st1.Exchanged - st0.Exchanged),
			})
		}
	}
	return tab, nil
}

type shardIO struct {
	reads uint64
	delay time.Duration
}

func shardIOTotals(se *shard.ShardedEngine, k int) shardIO {
	var t shardIO
	for i := 0; i < k; i++ {
		io := se.Engine(i).DB().Stats().IO
		t.reads += io.Reads
		t.delay += io.ReadDelay
	}
	return t
}

// unitPowerGraph builds the bench power-law graph: Barabási–Albert
// preferential attachment (the paper's §5.1 power-law family) with unit
// weights, so distances are hop counts and BSDJ's min-distance frontier is
// an entire BFS level rather than the near-singleton frontier distinct
// weights produce.
func unitPowerGraph(n int64) (*graph.Graph, error) {
	pg := graph.Power(n, 6, 42)
	edges := make([]graph.Edge, len(pg.Edges))
	for i, e := range pg.Edges {
		edges[i] = graph.Edge{From: e.From, To: e.To, Weight: 1}
	}
	return graph.New(n, edges)
}

type shardMeasure struct {
	dur      time.Duration
	qps      float64
	p50, p99 time.Duration
}

// measureShardLevel drives the pairs through query with shardBenchClients
// workers and returns the per-pair distances (-1 when unreachable) plus
// the latency profile. Identical driver for all configurations.
func measureShardLevel(pairs [][2]int64, query func(ctx context.Context, s, t int64) (core.QueryResult, error)) ([]int64, *shardMeasure, error) {
	dists := make([]int64, len(pairs))
	lats := make([]time.Duration, len(pairs))
	errsByQ := make([]error, len(pairs))
	var next int
	var mu sync.Mutex
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(pairs) {
			return -1
		}
		i := next
		next++
		return i
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < shardBenchClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := take()
				if i < 0 {
					return
				}
				q0 := time.Now()
				res, err := query(context.Background(), pairs[i][0], pairs[i][1])
				lats[i] = time.Since(q0)
				errsByQ[i] = err
				if err == nil {
					if res.Found {
						dists[i] = res.Distance
					} else {
						dists[i] = -1
					}
				}
			}
		}()
	}
	wg.Wait()
	dur := time.Since(t0)
	for i, err := range errsByQ {
		if err != nil {
			return nil, nil, fmt.Errorf("pair (%d,%d): %w", pairs[i][0], pairs[i][1], err)
		}
	}
	m := &shardMeasure{dur: dur}
	if dur > 0 {
		m.qps = float64(len(pairs)) / dur.Seconds()
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	m.p50 = sorted[len(sorted)/2]
	m.p99 = sorted[min(len(sorted)-1, len(sorted)*99/100)]
	return dists, m, nil
}
