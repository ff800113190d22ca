package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/fem"
	"repro/internal/rdb"
)

// A superstep is one engine's seat in the FEM loop (runSupersteps in
// fem.go): a scratch set, the algorithm's statement shapes rendered over it,
// and the handle-local accounting. Engine.search builds one on the scratch
// set it already leased and, when the engine coordinates a partitioned graph
// (peers.go), admits one more per peer; what the loop needs from a handle
// only then — reading an expansion back out as data, merging in candidates
// routed from peers, warming a frontier's pages — lives here.

// frontierCand is one harvested expansion candidate: node nid is reachable
// at distance cost through parent par. The loop exchanges these between
// peer handles; inject applies them through the M-operator MERGE.
type frontierCand struct{ nid, par, cost int64 }

// injectChunk is the wide INSERT shape used to push routed candidates into
// the scratch TExpand table: fixed row counts keep the statement-text
// population bounded so prepared handles and cached plans recycle.
const injectChunk = 16

// superstep is a per-query handle on one engine's FEM machinery. A peer's
// handle (admit) holds a shared-gate admission and a leased scratch set
// until release; the one the searching engine builds for itself borrows
// both from the query that builds it and is never released.
type superstep struct {
	e        *Engine
	sc       *scratchSet
	qs       *QueryStats
	spec     femSpec
	fwd, bwd femSide
	// observe, nil outside tests, is called on the first handle with the
	// loop's running lf, lb and minCost: before every F with the stamp about
	// to be written, and after every statistics fold with mark 0.
	observe func(forward bool, mark, lf, lb, minCost int64)
}

// femSide is one direction's statements on one handle: the E+M round, the
// F-operator (and ALT's pre-frontier prune, when the spec has one) and the
// statistics probe (Listing 4(4) and line 16's minCost in one statement).
type femSide struct {
	ops        fem.Ops
	front, pre stmtShape
	stats      string
}

func (ss *superstep) side(forward bool) *femSide {
	if forward {
		return &ss.fwd
	}
	return &ss.bwd
}

// newSuperstep renders spec over sc. budget caps the handle's statement
// count (0 = unlimited). The caller holds the query gate and owns sc.
func (e *Engine) newSuperstep(sc *scratchSet, spec femSpec, budget int64) *superstep {
	fwd, bwd := fwdDir(), bwdDir()
	ss := &superstep{
		e: e, sc: sc, spec: spec,
		qs: &QueryStats{Algorithm: spec.name, budget: budget},
		fwd: femSide{ops: e.searchOps(sc, fwd, spec.edgeFwd, "q.f = ?", spec.prune),
			front: spec.frontier(fwd), stats: sc.biStatsF},
		bwd: femSide{ops: e.searchOps(sc, bwd, spec.edgeBwd, "q.b = ?", spec.prune),
			front: spec.frontier(bwd), stats: sc.biStatsB},
	}
	if spec.preFrontier != nil {
		ss.fwd.pre, ss.bwd.pre = spec.preFrontier(fwd), spec.preFrontier(bwd)
	}
	return ss
}

// admit seats this engine in a search its coordinator drives: a shared gate
// slot (concurrent with other readers) and a leased scratch set, both held
// until release. budget caps the handle's statement count (0 = unlimited).
func (e *Engine) admit(ctx context.Context, alg Algorithm, budget int64) (*superstep, error) {
	if err := e.lockShared(ctx); err != nil {
		return nil, err
	}
	sc, err := e.scratch.acquire()
	if err != nil {
		e.unlockShared()
		return nil, err
	}
	spec, err := e.specFor(alg, sc, 0, 0)
	if err != nil {
		e.scratch.release(sc)
		e.unlockShared()
		return nil, err
	}
	return e.newSuperstep(sc, spec, budget), nil
}

// release returns the scratch set and the gate admission admit took.
func (ss *superstep) release() {
	ss.e.scratch.release(ss.sc)
	ss.e.unlockShared()
}

// inject applies candidates routed from peers through the M-operator: the
// scratch TExpand table is cleared, the batch is inserted (deduplicated by
// the caller — TExpand's nid is a primary key), and the direction's MERGE
// relaxes the visited table, re-opening (sign=0) any settled row the batch
// improves. Seeding works the same way: injecting (s, s, 0) forward into an
// empty table reproduces the biInit row for s.
func (ss *superstep) inject(ctx context.Context, forward bool, cands []frontierCand) error {
	if len(cands) == 0 {
		return nil
	}
	e, qs := ss.e, ss.qs
	if _, err := e.exec(ctx, qs, &qs.PE, &qs.MOp, ss.sc.resets[1]); err != nil {
		return err
	}
	for len(cands) > 0 {
		q, n := ss.sc.inj1, 1
		if len(cands) >= injectChunk {
			q, n = ss.sc.injN, injectChunk
		}
		args := make([]any, 0, 3*n)
		for _, c := range cands[:n] {
			args = append(args, c.nid, c.par, c.cost)
		}
		if _, err := e.exec(ctx, qs, &qs.PE, &qs.MOp, q, args...); err != nil {
			return err
		}
		cands = cands[n:]
	}
	_, err := e.runOps(ctx, qs, ss.side(forward).ops.Apply, nil, sentinelArgs)
	return err
}

// expandHarvest runs the E-operator for the frontier stamped mark into the
// scratch TExpand table, reads the candidate set back out (before the local
// merge consumes it) and applies the local M-operator. lOther and minCost
// bind the Theorem-1 prune exactly as the lone handle's round binds them.
func (ss *superstep) expandHarvest(ctx context.Context, forward bool, mark, lOther, minCost int64) ([]frontierCand, error) {
	e, qs, ops := ss.e, ss.qs, ss.side(forward).ops
	if _, err := e.runOps(ctx, qs, ops.Stage, ss.expandArgs(mark, lOther, minCost), nil); err != nil {
		return nil, err
	}
	rows, err := e.queryRows(ctx, qs, &qs.PE, ss.sc.harvest)
	if err != nil {
		return nil, err
	}
	cands := make([]frontierCand, 0, rows.Len())
	for _, r := range rows.Data {
		cands = append(cands, frontierCand{nid: r[0].I, par: r[1].I, cost: r[2].I})
	}
	_, err = e.runOps(ctx, qs, ops.Apply, nil, sentinelArgs)
	return cands, err
}

// prefetchFrontier warms the buffer pool with the adjacency pages the
// direction's E-operator is about to scan: the selected frontier (sign=mark)
// is read back from the resident visited table, split round-robin across
// prefetchWorkers goroutines, and each worker probes the edge (or segment)
// table for its nids through the engine's concurrent read path. The probes
// fault in the same index and heap pages the expansion join will touch, but
// in parallel instead of serially inside one statement — on a cold pool
// this converts the expansion's page waits from frontier-sized serial
// chains into overlapped transfers. The expansion itself is unchanged; a
// warm pool makes this a cheap no-op per nid. The lever exists only with
// peers: their loop materializes the frontier as data, while the lone
// handle's fused MERGE never surfaces it outside one statement.
//
// Prefetch pays for itself when the warmed pages stay resident until the
// expansion reads them. A frontier whose adjacency rivals the whole buffer
// pool can displace the visited working set and turn the warm-up into
// churn — partitioning is what keeps both sides small (each shard sees 1/k
// of the frontier and 1/k of the visited rows), so the technique composes
// with sharding rather than substituting for memory.
func (ss *superstep) prefetchFrontier(ctx context.Context, forward bool, mark int64) error {
	e, qs := ss.e, ss.qs
	// MIN(cost) rather than COUNT(*): cost lives only in the base rows, so
	// the probe must fetch the same heap pages the expansion join will read,
	// not satisfy itself from an index.
	nidQ, probeQ := ss.sc.markedB, "SELECT MIN(cost) FROM "+ss.spec.edgeBwd+" WHERE tid = ?"
	if forward {
		nidQ, probeQ = ss.sc.markedF, "SELECT MIN(cost) FROM "+ss.spec.edgeFwd+" WHERE fid = ?"
	}
	rows, err := e.queryRows(ctx, qs, &qs.EOp, nidQ, mark)
	if err != nil {
		return err
	}
	if rows.Len() <= 1 {
		return nil
	}
	nids := make([]int64, 0, rows.Len())
	for _, r := range rows.Data {
		nids = append(nids, r[0].I)
	}
	st, err := e.stmt(probeQ)
	if err != nil {
		return err
	}
	workers := min(prefetchWorkers, len(nids))
	t0 := time.Now()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(nids); i += workers {
				if _, _, err := st.QueryIntContext(ctx, nids[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	dt := time.Since(t0)
	qs.Statements += len(nids)
	qs.PE += dt
	qs.EOp += dt
	return errors.Join(errs...)
}

// queryRows runs a row-returning query through the prepared-statement cache
// with the usual budget/cancellation/accounting treatment (exec and
// queryInt cover the scalar cases; the harvest needs whole rows).
func (e *Engine) queryRows(ctx context.Context, qs *QueryStats, phase *time.Duration, q string, args ...any) (*rdb.Rows, error) {
	if err := e.checkBudget(ctx, qs); err != nil {
		return nil, err
	}
	st, err := e.stmt(q)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	rows, err := st.QueryContext(ctx, args...)
	dt := time.Since(t0)
	if qs != nil {
		qs.Statements++
	}
	if phase != nil {
		*phase += dt
	}
	return rows, err
}
