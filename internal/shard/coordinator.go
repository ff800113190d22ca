package shard

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
)

// ErrUnsupportedAlgorithm reports a Query hint outside the coordinator's
// set-at-a-time algorithms (BSDJ, BBFS, BSEG). It aliases the core
// sentinel so errors.Is matches either layer.
var ErrUnsupportedAlgorithm = core.ErrUnsupportedSuperstep

// Query answers a shortest-path request by admitting every shard engine to
// one run of the FEM loop (core.RunSupersteps) with the partition as the
// owner function: the loop seeds s and t at their owner shards, runs
// F + E + M on every shard in parallel each superstep, and routes each
// harvested (nid, parent, cost) candidate to the shard owning nid, until
// the §4.1 stopping condition holds over the global minima or both
// directions exhaust. MaxStatements applies per shard (each shard budgets
// its own statement stream). MaxRelError is ignored: every answer is
// exact, which satisfies any tolerance.
func (se *ShardedEngine) Query(ctx context.Context, req core.QueryRequest) (core.QueryResult, error) {
	start := time.Now()
	se.queries.Add(1)
	res, err := se.run(ctx, req)
	se.queryDur.Observe(time.Since(start).Seconds())
	if err != nil {
		se.errors.Add(1)
	}
	return res, err
}

// resolve maps the request's algorithm hint to a coordinator-supported
// concrete algorithm and a planner decision label.
func (se *ShardedEngine) resolve(alg core.Algorithm) (core.Algorithm, string, error) {
	switch alg {
	case core.AlgAuto:
		// The planner degenerates to two choices here: BSEG when every
		// shard carries a SegTable, the plain set Dijkstra otherwise.
		if se.segBuilt {
			return core.AlgBSEG, "shard-bseg", nil
		}
		return core.AlgBSDJ, "shard-bsdj", nil
	case core.AlgBSDJ, core.AlgBBFS:
		return alg, "hint", nil
	case core.AlgBSEG:
		if !se.segBuilt {
			return 0, "", fmt.Errorf("shard: BSEG requires Options.Lthd > 0 at Open")
		}
		return alg, "hint", nil
	}
	return 0, "", fmt.Errorf("%w: %v", ErrUnsupportedAlgorithm, alg)
}

func (se *ShardedEngine) run(ctx context.Context, req core.QueryRequest) (core.QueryResult, error) {
	s, t := req.Source, req.Target
	if s < 0 || s >= se.nodes || t < 0 || t >= se.nodes {
		return core.QueryResult{}, fmt.Errorf("shard: query (%d,%d) out of node range [0,%d)", s, t, se.nodes)
	}
	alg, decision, err := se.resolve(req.Alg)
	if err != nil {
		return core.QueryResult{}, err
	}

	// Admit one superstep handle per shard (shared gate + scratch lease).
	hs := make([]*core.Superstep, se.part.K)
	defer func() {
		for _, h := range hs {
			if h != nil {
				h.Close()
			}
		}
	}()
	if err := se.fanout(func(i int, sh *shardInstance) error {
		h, err := sh.eng.BeginSuperstep(ctx, alg, req.MaxStatements)
		hs[i] = h
		return err
	}); err != nil {
		return core.QueryResult{}, err
	}

	// Admissible sketch bound: the length of a real s->portal->t walk.
	upper, portal := int64(4*core.MaxDist), -1
	if se.sk != nil {
		if b, p, ok := se.sk.Bound(s, t); ok {
			upper, portal = b, p
		}
	}

	p, qs, err := core.RunSupersteps(ctx, hs, se.part.Owner, s, t, upper)
	qs.Planner = decision
	se.supersteps.Add(uint64(qs.Iterations))
	se.exchanged.Add(uint64(qs.Exchanged))
	if err != nil {
		return core.QueryResult{Stats: qs}, err
	}
	if !p.Found {
		return core.QueryResult{Lower: core.MaxDist, Upper: core.MaxDist, Algorithm: alg, Stats: qs}, nil
	}
	if p.Nodes == nil {
		// The relational search terminated against the sketch bound before
		// recording a meeting at that cost; the portal trees carry the path.
		se.sketchWins.Add(1)
		p.Nodes = se.sk.Path(s, t, portal)
	}
	return core.QueryResult{Found: true, Distance: p.Length, Path: p,
		Lower: p.Length, Upper: p.Length, Algorithm: alg, Stats: qs}, nil
}

// QueryBatch fans a request set across a worker pool (workers <= 0 means
// GOMAXPROCS), answering each through the coordinator. Results come back
// in input order; a cancelled context fails the not-yet-started requests
// fast, as core.Engine.QueryBatch does.
func (se *ShardedEngine) QueryBatch(ctx context.Context, reqs []core.QueryRequest, workers int) []core.QueryResponse {
	return core.BatchQuery(ctx, reqs, workers, se.Query)
}
