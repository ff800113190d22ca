package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rdb"
)

// Options configures a ShardedEngine.
type Options struct {
	// Shards is the partition count k (>= 1).
	Shards int
	// Strategy maps node ids to shards (Hash default).
	Strategy Strategy
	// Lthd, when > 0, builds each shard's SegTable at that threshold so the
	// coordinator can run BSEG.
	Lthd int64
	// Portals, when > 0, builds the cut-vertex sketch with up to that many
	// portals (0 = no sketch).
	Portals int
	// BufferPoolPages is the TOTAL page budget, split evenly across the
	// shard databases (0 = each shard gets the rdb default).
	BufferPoolPages int
	// SimulatedIOLatency is forwarded to every shard database.
	SimulatedIOLatency time.Duration
}

// ErrUnsupportedAlgorithm reports a Query hint outside the set-at-a-time
// algorithms a partitioned graph serves (BSDJ, BBFS, BSEG). It aliases the
// core sentinel so errors.Is matches either layer.
var ErrUnsupportedAlgorithm = core.ErrUnsupportedSuperstep

// coordinator names the embedded engine's field (the Engine method takes
// the type's own name).
type coordinator = core.Engine

// ShardedEngine owns k core.Engine instances, each loaded with its
// partition's edges (owned plus mirrored cut edges) over the full node-id
// space. The embedded engine is shard 0's, which coordinates: Query,
// QueryBatch and every other engine method are its own, run over one FEM
// handle per shard (core.Engine.SetPeers), with MaxStatements budgeting each
// shard's statement stream; what would need the whole graph in one database
// is refused with core.ErrPartitioned.
type ShardedEngine struct {
	*coordinator
	part   Partition
	shards []*shardInstance
	sk     *sketch

	cutEdges   int
	sketchWins atomic.Uint64 // queries answered at the sketch bound
}

// shardInstance is one partition's engine over its own database.
type shardInstance struct {
	eng   *core.Engine
	edges int // rows in this shard's edge table, mirrors included
}

// Open partitions g and brings up the shard engines in parallel. Lthd > 0
// additionally builds each shard's SegTable (over the shard subgraph — the
// fold covers every local edge, so relaxations along any original edge
// remain available in the owning shard).
func Open(g *graph.Graph, opts Options) (*ShardedEngine, error) {
	part, err := NewPartition(g.N, opts.Shards, opts.Strategy)
	if err != nil {
		return nil, err
	}
	split := part.SplitEdges(g)

	se := &ShardedEngine{
		part:     part,
		shards:   make([]*shardInstance, part.K),
		cutEdges: split.CutEdges,
	}
	pagesPer := 0
	if opts.BufferPoolPages > 0 {
		pagesPer = opts.BufferPoolPages / part.K
		if pagesPer < 1 {
			pagesPer = 1
		}
	}
	err = se.fanout(func(i int, _ *shardInstance) error {
		db, err := rdb.Open(rdb.Options{
			BufferPoolPages:    pagesPer,
			SimulatedIOLatency: opts.SimulatedIOLatency,
		})
		if err != nil {
			return err
		}
		// No path cache, the coordinator's included: switching it on needs
		// an Options field of its own.
		eng := core.NewEngine(db, core.Options{CacheSize: -1})
		sub, err := graph.New(g.N, split.Edges[i])
		if err != nil {
			db.Close()
			return err
		}
		if err := eng.LoadGraph(sub); err != nil {
			db.Close()
			return err
		}
		if opts.Lthd > 0 {
			if _, err := eng.BuildSegTable(opts.Lthd); err != nil {
				eng.Close()
				return err
			}
		}
		se.shards[i] = &shardInstance{eng: eng, edges: sub.M()}
		return nil
	})
	if err != nil {
		se.Close()
		return nil, err
	}
	// Edges: the original count; each shard's own counts its mirrors.
	peers := core.Peers{Owner: part.Owner, Edges: g.M()}
	for _, sh := range se.shards[1:] {
		peers.Others = append(peers.Others, sh.eng)
	}
	if se.sk = buildSketch(g, split.CutVertices, opts.Portals); se.sk != nil {
		peers.Bound = se.sketchBound
	}
	se.coordinator = se.shards[0].eng
	if err := se.SetPeers(peers); err != nil {
		se.Close()
		return nil, err
	}
	return se, nil
}

// sketchBound is the coordinator's Peers.Bound: the length of a real
// s->portal->t walk is an admissible upper bound on d(s, t), and the portal
// trees carry its witness. The witness is asked for exactly when the sketch
// answered the query.
func (se *ShardedEngine) sketchBound(s, t int64) (int64, func() []int64) {
	b, portal, ok := se.sk.Bound(s, t)
	if !ok {
		return 0, nil
	}
	return b, func() []int64 {
		se.sketchWins.Add(1)
		return se.sk.Path(s, t, portal)
	}
}

// Close shuts every shard engine down. Safe on a partially opened engine.
func (se *ShardedEngine) Close() error {
	var errs []error
	for _, sh := range se.shards {
		if sh == nil {
			continue
		}
		if err := sh.eng.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Engine exposes shard i's underlying engine (tests and stats plumbing).
func (se *ShardedEngine) Engine(i int) *core.Engine { return se.shards[i].eng }

// EvictAll drops every shard's buffer pool, forcing the next queries cold.
// Benchmarks use it to measure disk-resident behaviour after the load
// phase warmed the pools.
func (se *ShardedEngine) EvictAll() error {
	return se.fanout(func(_ int, sh *shardInstance) error {
		return sh.eng.DB().Pool().EvictAll()
	})
}

// SetSimulatedIOLatency arms or disarms the simulated per-page seek cost
// on every shard's database; benchmarks open at memory speed and charge
// the seek only in the measured phase.
func (se *ShardedEngine) SetSimulatedIOLatency(lat time.Duration) {
	for _, sh := range se.shards {
		sh.eng.DB().SetSimulatedIOLatency(lat)
	}
}

// fanout runs fn for every shard concurrently and joins the errors (the
// repo carries no dependencies, so this replaces an errgroup).
func (se *ShardedEngine) fanout(fn func(i int, sh *shardInstance) error) error {
	errs := make([]error, len(se.shards))
	var wg sync.WaitGroup
	for i := range se.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i, se.shards[i])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ShardStats is one shard's slice of the Stats block.
type ShardStats struct {
	Edges       int    `json:"edges"` // including mirrored cut edges
	Statements  uint64 `json:"statements"`
	PeakReaders int    `json:"peak_readers"`
}

// Stats is the shard block of /stats: what the partitioning adds to the
// document the coordinating engine already fills (graph, db, concurrency...).
type Stats struct {
	Shards     int          `json:"shards"`
	Strategy   string       `json:"strategy"`
	CutEdges   int          `json:"cut_edges"`
	Portals    int          `json:"portals"`
	Supersteps uint64       `json:"supersteps"`
	Exchanged  uint64       `json:"exchanged_candidates"`
	SketchWins uint64       `json:"sketch_wins"`
	PerShard   []ShardStats `json:"per_shard"`
}

// Stats snapshots the partition counters and per-shard engine state.
func (se *ShardedEngine) Stats() Stats {
	st := Stats{
		Shards:     se.part.K,
		Strategy:   se.part.Strategy.String(),
		CutEdges:   se.cutEdges,
		SketchWins: se.sketchWins.Load(),
	}
	st.Supersteps, st.Exchanged = se.ExchangeStats()
	if se.sk != nil {
		st.Portals = len(se.sk.portals)
	}
	for _, sh := range se.shards {
		st.PerShard = append(st.PerShard, ShardStats{
			Edges:       sh.edges,
			Statements:  sh.eng.DB().Stats().Statements,
			PeakReaders: sh.eng.ConcurrencyStats().Gate.PeakReaders,
		})
	}
	return st
}

// CollectMetrics exports the partition families for /metrics, beside the
// families the coordinating engine exports as every engine does.
func (se *ShardedEngine) CollectMetrics(x *obs.Exporter) {
	st := se.Stats()
	x.Gauge("spdb_shard_count", "Configured shard count.", float64(st.Shards))
	x.Gauge("spdb_shard_cut_edges", "Edges crossing shard boundaries.", float64(st.CutEdges))
	x.Gauge("spdb_shard_sketch_portals", "Cut-vertex sketch portal count.", float64(st.Portals))
	x.Counter("spdb_shard_supersteps_total", "Coordinator supersteps executed.", float64(st.Supersteps))
	x.Counter("spdb_shard_exchanged_candidates_total", "Frontier candidates routed across shard boundaries.", float64(st.Exchanged))
	x.Counter("spdb_shard_sketch_wins_total", "Queries answered at the cut-vertex sketch bound.", float64(st.SketchWins))
	// The exporter requires each family's samples to be consecutive, so
	// iterate shards once per family rather than families once per shard.
	for i, ps := range st.PerShard {
		x.Gauge("spdb_shard_edges", "Edge rows loaded per shard (mirrors included).", float64(ps.Edges), obs.L("shard", fmt.Sprintf("%d", i)))
	}
	for i, ps := range st.PerShard {
		x.Counter("spdb_shard_statements_total", "Statements executed per shard database.", float64(ps.Statements), obs.L("shard", fmt.Sprintf("%d", i)))
	}
	for i, ps := range st.PerShard {
		x.Gauge("spdb_shard_gate_peak_readers", "Peak concurrent readers admitted per shard.", float64(ps.PeakReaders), obs.L("shard", fmt.Sprintf("%d", i)))
	}
}
