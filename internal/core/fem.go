package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/oracle"
	"repro/internal/rdb"
	"repro/internal/record"
)

// femSpec parameterizes the generic bi-directional FEM loop. The four
// bi-directional algorithms differ only in (i) the frontier-selection rule
// (the F-operator), (ii) the edge source (TEdges vs SegTable) and (iii)
// whether the lf/lb bounds participate in termination — exactly the axes
// §4 varies.
//
// Statement shapes are rendered once per query (the text is stable for the
// whole search — and across searches, so the engine's prepared-statement
// cache reuses the compiled plan); per-iteration values (the expansion
// counter k, the frontier minimum l, the best known cost minCost) bind as ?
// parameters through the shape's args function.
type femSpec struct {
	name    string
	edgeFwd string
	edgeBwd string
	// frontier renders the F-operator sign update for a direction; the
	// returned shape's args function binds the 1-based expansion counter k
	// of that direction (BSEG's d2s <= k*lthd rule, bound as "? * ?") and
	// the direction's candidate minimum l — the loop read it after the
	// direction's last expansion and nothing has moved it since, so no rule
	// looks for it again. The statement must set sign = stamp(k) on the
	// selected frontier and report the frontier size as its affected count.
	frontier func(d direction) stmtShape
	// preFrontier, when set, renders a statement that runs (repeatedly,
	// until it affects nothing) before every frontier selection once a
	// path is known: ALT's settle-without-expand of frontier-minimum
	// candidates whose landmark lower bound proves they cannot improve the
	// best path, so provably-unhelpful tuples never enter the frontier.
	// The shape's args function binds the per-iteration minCost and l.
	// Restricting the check to the current minimum matters for the work
	// metric: deeper candidates may never be selected before termination,
	// and settling those would be pure overhead.
	preFrontier func(d direction) stmtShape
	// trackL enables the lf+lb >= minCost termination (Dijkstra-family);
	// BBFS leaves bounds at zero and terminates by exhaustion.
	trackL bool
	prune  bool
	// smallerL picks the direction with the smaller frontier distance
	// (classic bi-directional Dijkstra) instead of the fewer-frontier rule
	// of §4.1. Node-at-a-time BDJ needs this: its frontier counts are
	// always 1, so the fewer-frontier rule would never switch direction.
	smallerL bool
}

// stmtShape is one prepared statement shape: stable text plus a binder for
// the per-iteration values — v the expansion counter (frontiers) or minCost
// (ALT's pre-frontier prune), l the direction's candidate minimum.
type stmtShape struct {
	text string
	args func(v, l int64) []any
}

// stamp is the sign value a direction's k-th expansion (1-based) writes on
// its frontier. A sign column reads 0 = candidate, 1 = not a candidate by
// this side (the other direction's insert sentinel, ALT's prune), n >= 2 =
// taken by expansion n-1. The E-operator selects the frontier by its stamp
// and nothing resets it: every other predicate only asks "sign = 0", which a
// stale stamp fails like a 1 does, and the M-operator re-opens an improved
// row to 0 whatever it held.
func stamp(k int64) int64 { return k + 1 }

// markFrontier is the head of every F-operator statement.
func markFrontier(sc *scratchSet, d direction) string {
	return "UPDATE " + sc.visited + " SET " + d.sign + " = ? WHERE " + d.sign + " = 0"
}

// The per-set statement texts of the bi-directional loop (biInit, the
// statistics probes) live on scratchSet, rendered once at mint time; the
// frontier shapes below embed the set's visited-table name the same way.
// Texts are stable per (shape, scratch set), so prepared handles and cached
// plans recycle with the pool's bounded id space.

// specBDJ: bi-directional Dijkstra, one frontier node per expansion.
func specBDJ(sc *scratchSet) femSpec {
	return femSpec{
		name:    "BDJ",
		edgeFwd: TblEdges,
		edgeBwd: TblEdges,
		frontier: func(d direction) stmtShape {
			return stmtShape{
				text: markFrontier(sc, d) + " AND nid = (SELECT TOP 1 nid FROM " + sc.visited +
					" WHERE " + d.sign + " = 0 AND " + d.dist + " = ?)",
				args: func(k, l int64) []any { return []any{stamp(k), l} },
			}
		},
		trackL:   true,
		prune:    false, // pruning is introduced with the set variant (§4.1)
		smallerL: true,
	}
}

// specBSDJ: bi-directional set Dijkstra — all nodes at the minimal
// distance become the frontier together (§4.1's RDB-friendly batch rule).
func specBSDJ(sc *scratchSet) femSpec {
	return femSpec{
		name:    "BSDJ",
		edgeFwd: TblEdges,
		edgeBwd: TblEdges,
		frontier: func(d direction) stmtShape {
			return stmtShape{
				text: markFrontier(sc, d) + " AND " + d.dist + " = ?",
				args: func(k, l int64) []any { return []any{stamp(k), l} },
			}
		},
		trackL: true,
		prune:  true,
	}
}

// specBBFS: bi-directional BFS — every candidate expands every round.
func specBBFS(sc *scratchSet) femSpec {
	return femSpec{
		name:    "BBFS",
		edgeFwd: TblEdges,
		edgeBwd: TblEdges,
		frontier: func(d direction) stmtShape {
			return stmtShape{
				text: markFrontier(sc, d),
				args: func(k, _ int64) []any { return []any{stamp(k)} },
			}
		},
		trackL: false,
		prune:  true,
	}
}

// specBSEG: selective expansion over SegTable (Listing 4(1)): candidates
// within k*lthd expand together with the minimal one. k and lthd bind as
// two parameters (the arithmetic happens in the statement, "? * ?"), so
// the text never changes across iterations or thresholds.
func specBSEG(sc *scratchSet, lthd int64) femSpec {
	return femSpec{
		name:    "BSEG",
		edgeFwd: TblOutSegs,
		edgeBwd: TblInSegs,
		frontier: func(d direction) stmtShape {
			return stmtShape{
				text: markFrontier(sc, d) + " AND (" + d.dist + " <= ? * ? OR " + d.dist + " = ?)",
				args: func(k, l int64) []any { return []any{stamp(k), k, lthd, l} },
			}
		},
		trackL: true,
		prune:  true,
	}
}

// specALT: the bi-directional set Dijkstra of §4.1 extended with ALT
// goal-directed pruning over the landmark oracle. Before each frontier
// selection (once some s-t path is known), candidates whose landmark lower
// bound proves every path through them is at least the best known cost are
// settled without expansion:
//
//	forward:  d2s(v) + max_l max(dout_l(t)-dout_l(v), din_l(v)-din_l(t)) >= minCost
//	backward: d2t(v) + max_l max(dout_l(v)-dout_l(s), din_l(s)-din_l(v)) >= minCost
//
// Both terms inside the max are triangle-inequality lower bounds on the
// remaining distance (dist(v,t) forward, dist(s,v) backward) valid on
// directed graphs; the two directions are two conjunct-level comparisons
// so no GREATEST() support is needed. Settling with the CURRENT tentative
// distance is sound because the M-operator reopens any settled node whose
// distance later improves (sets its sign back to 0), so a candidate is
// only permanently excluded once the bound holds for its exact distance —
// and then every s-t path through it costs at least minCost at prune time,
// which itself bounds the final answer from above.
func specALT(sc *scratchSet, s, t int64) femSpec {
	spec := specBSDJ(sc)
	spec.name = "ALT"
	spec.preFrontier = func(d direction) stmtShape {
		end := t
		boundFwd, boundBwd := "lt.dout - lv.dout", "lv.din - lt.din"
		if !d.forward {
			end = s
			boundFwd, boundBwd = "lv.dout - lt.dout", "lt.din - lv.din"
		}
		text := "UPDATE " + sc.visited + " SET " + d.sign + " = 1 WHERE " + d.sign +
			" = 0 AND " + d.dist + " = ? AND (" +
			d.dist + " + (SELECT MAX(" + boundFwd + ") FROM " + oracle.TblLandmark + " lv, " +
			oracle.TblLandmark + " lt WHERE lv.lid = lt.lid AND lt.nid = ? AND lv.nid = " +
			sc.visited + ".nid) >= ? OR " +
			d.dist + " + (SELECT MAX(" + boundBwd + ") FROM " + oracle.TblLandmark + " lv, " +
			oracle.TblLandmark + " lt WHERE lv.lid = lt.lid AND lt.nid = ? AND lv.nid = " +
			sc.visited + ".nid) >= ?)"
		return stmtShape{
			text: text,
			args: func(minCost, l int64) []any { return []any{l, end, minCost, end, minCost} },
		}
	}
	return spec
}

// StopCondition is the paper's §4.1 termination term: once some s-t meeting
// is known (minCost) and the two frontier minima lf and lb together cannot
// beat it, no undiscovered path can either — every such path still crosses
// a forward candidate (≥ lf) and a backward candidate (≥ lb).
func StopCondition(lf, lb, minCost int64) bool {
	return minCost < MaxDist && lf+lb >= minCost
}

// runSupersteps runs the generic FEM loop of Algorithm 2 over one handle per
// engine; owner maps a node to the handle holding its authoritative visited
// row. It seeds s and t at their owners, then repeatedly picks a direction
// and runs three steps on every handle: F (the sign update that stamps the
// frontier), E+M (expansion, with a boundary exchange when there are peers)
// and one statistics probe that yields the direction's lf/lb and the
// cheapest meeting among its candidates, folded across the handles. It stops
// when lf + lb >= minCost or either search exhausts (§4.1's termination;
// exhaustion of one side finalizes that side's distances, so minCost is then
// exact). The single engine is the one-handle case with owner ≡ 0: every
// fold is over one value and nothing is routed.
//
// upper is an external upper bound on dist(s,t) — the length of a real walk
// the caller knows, 4*MaxDist for none. It tightens termination and the
// Theorem-1 prune; when the search stops against it before recording a
// meeting that cheap, the path comes back Found with Length == upper and
// nil Nodes: the caller holds the witness.
//
// The returned stats fold every handle's accounting; phase durations sum
// handle wall clocks, so with peers working in parallel they read as
// aggregate work, like CPU time. Handles serve one run.
func runSupersteps(ctx context.Context, hs []*superstep, owner func(nid int64) int, s, t, upper int64) (Path, *QueryStats, error) {
	spec, e := hs[0].spec, hs[0].e
	qs := &QueryStats{Algorithm: spec.name}
	start := time.Now()
	defer func() {
		for _, h := range hs {
			qs.fold(h.qs)
		}
		qs.Total = time.Since(start)
	}()

	if err := each(hs, func(_ int, h *superstep) error { return h.e.resetVisited(ctx, h.qs, h.sc) }); err != nil {
		return Path{}, qs, err
	}
	if s == t {
		return Path{Found: true, Length: 0, Nodes: []int64{s}}, qs, nil
	}
	// Initialize with the two endpoints (line 1 of Algorithm 2; the
	// MaxDist/NoParent sentinels bind as parameters like everything else).
	// Endpoints with different owners are merged in at each one instead,
	// which on an empty table writes the same two rows.
	var err error
	if hS, hT := hs[owner(s)], hs[owner(t)]; hS == hT {
		_, err = hS.e.exec(ctx, hS.qs, &hS.qs.PE, nil, hS.sc.biInit,
			s, s, MaxDist, NoParent, t, MaxDist, NoParent, t)
	} else if err = hS.inject(ctx, true, []frontierCand{{s, s, 0}}); err == nil {
		err = hT.inject(ctx, false, []frontierCand{{t, t, 0}})
	}
	if err != nil {
		return Path{}, qs, err
	}

	// Per-direction loop state: l is the frontier minimum (lf / lb), n the
	// last frontier size, k the expansion counter, live whether candidates
	// remain. The seeds are the two candidates, at distance 0.
	type dirState struct {
		l, n, k int64
		live    bool
	}
	fw, bw := &dirState{n: 1, live: true}, &dirState{n: 1, live: true}
	// minCost is the cheapest meeting the visited tables record (line 16), a
	// running minimum over the statistics probes: an M-operator changes
	// d2s + d2t only on rows it leaves as candidates of its direction (the
	// update arm re-opens them, the insert arm creates them so, and routed
	// candidates go through the same MERGE at their owner, whose row carries
	// the global minimum d2s AND d2t), and distances only fall, so the
	// minimum over the rows the probes saw is the minimum over the tables.
	minCost := int64(MaxDist)
	var best int64 // ... or the caller's bound, if cheaper
	limit := e.maxIters()
	counts, probes := make([]int64, len(hs)), make([]record.Row, len(hs))

	// collect is the statistics step (Listing 4(4) and line 16 in one probe
	// per handle): the direction's candidate minimum and the cheapest meeting
	// among its candidates, NULL together on a handle that holds none. No
	// candidate anywhere: the side is exhausted.
	collect := func(cur *dirState) error {
		forward := cur == fw
		if err := each(hs, func(i int, h *superstep) error {
			rows, err := h.e.queryRows(ctx, h.qs, &h.qs.SC, h.side(forward).stats)
			if err == nil {
				probes[i] = rows.Data[0]
			}
			return err
		}); err != nil {
			return err
		}
		l := int64(math.MaxInt64)
		for _, p := range probes {
			if !p[0].Null {
				l, minCost = min(l, p[0].I), min(minCost, p[1].I)
			}
		}
		if cur.live = l != math.MaxInt64; cur.live {
			cur.l = l
		}
		if hs[0].observe != nil {
			hs[0].observe(forward, 0, fw.l, bw.l, minCost)
		}
		return nil
	}

	for iter := 0; ; iter++ {
		// Cooperative cancellation: one check per frontier iteration, so a
		// dead query releases the latch within a single expansion round.
		if err := rdb.ContextErr(ctx); err != nil {
			return Path{}, qs, fmt.Errorf("core: %s cancelled after %d iterations: %w", spec.name, iter, err)
		}
		if iter > limit {
			return Path{}, qs, fmt.Errorf("core: %s exceeded %d iterations (s=%d t=%d)", spec.name, limit, s, t)
		}
		qs.Iterations = iter + 1
		best = min(minCost, upper)
		if spec.trackL && StopCondition(fw.l, bw.l, best) {
			break
		}
		if !fw.live && !bw.live {
			break
		}
		var forward bool
		switch {
		case e.opts.AlternateDirections:
			forward = fw.live && (!bw.live || iter%2 == 0)
		case spec.smallerL:
			forward = fw.live && (!bw.live || fw.l <= bw.l)
		default:
			// The paper's §4.1 policy: expand the direction with fewer
			// frontier nodes to limit intermediate results.
			forward = fw.live && (!bw.live || fw.n <= bw.n)
		}
		cur, other := bw, fw
		if forward {
			cur, other = fw, bw
		}

		// ALT pruning: once a path is known, settle frontier-minimum
		// candidates the landmark bound proves unable to improve it, before
		// they can be selected. Repeats while whole minimum sets fall: each
		// settled row was next in line for an expansion, so the minimum has
		// moved and is read again. The loop is bounded — every round either
		// affects nothing (stop) or shrinks the candidate pool; a pool it
		// empties leaves this side exhausted (its distances are final, so
		// minCost is exact) and the loop re-checks at the top.
		if spec.preFrontier != nil && best < MaxDist {
			for cur.live {
				n, err := tally(hs, counts, func(h *superstep) (int64, error) {
					pre := h.side(forward).pre
					return h.e.exec(ctx, h.qs, &h.qs.PE, &h.qs.FOp, pre.text, pre.args(best, cur.l)...)
				})
				if err != nil {
					return Path{}, qs, err
				}
				if n == 0 {
					break
				}
				qs.PrunedRows += n
				if err := collect(cur); err != nil {
					return Path{}, qs, err
				}
			}
			if !cur.live {
				continue
			}
		}

		// F-operator: select and stamp the frontier (Listing 4(1)). l is the
		// minimum over every handle's candidates, so only the handles holding
		// it (or, for BSEG, rows within k*lthd) select anything, and with a
		// live side at least one does.
		cur.k++
		mark := stamp(cur.k)
		if hs[0].observe != nil {
			hs[0].observe(forward, mark, fw.l, bw.l, minCost)
		}
		cnt, err := tally(hs, counts, func(h *superstep) (int64, error) {
			front := h.side(forward).front
			return h.e.exec(ctx, h.qs, &h.qs.PE, &h.qs.FOp, front.text, front.args(cur.k, cur.l)...)
		})
		if err != nil {
			return Path{}, qs, err
		}

		// E + M operators (Listing 4(2)) over the rows carrying the stamp;
		// nothing un-marks them afterwards (Listing 4(3) has no statement).
		routed, err := expandMerge(ctx, hs, owner, forward, counts, mark, other.l, best)
		qs.Exchanged += routed
		if err != nil {
			return Path{}, qs, err
		}
		if forward {
			qs.ForwardExpansions++
		} else {
			qs.BackwardExpansions++
		}

		// Collect the latest minimal distance (Listing 4(4)). Only the
		// expanded direction's: its merge never touches the other
		// direction's distance or sign, so that bound cannot have moved.
		if err := collect(cur); err != nil {
			return Path{}, qs, err
		}
		cur.n = cnt
	}
	qs.Expansions = qs.ForwardExpansions + qs.BackwardExpansions

	vc, err := tally(hs, counts, func(h *superstep) (int64, error) {
		n, err := h.e.visitedCount(ctx, h.qs, h.sc)
		return int64(n), err
	})
	if err != nil {
		return Path{}, qs, err
	}
	qs.VisitedRows = int(vc)

	if best >= MaxDist {
		return Path{Found: false}, qs, nil
	}
	if upper < minCost {
		return Path{Found: true, Length: upper}, qs, nil
	}
	nodes, err := recoverPath(ctx, hs, owner, s, t, minCost, spec.edgeFwd != TblEdges)
	if err != nil {
		return Path{}, qs, err
	}
	return Path{Found: true, Length: minCost, Nodes: nodes}, qs, nil
}

// each runs fn on every handle — concurrently when there are peers — and
// joins the errors.
func each(hs []*superstep, fn func(i int, h *superstep) error) error {
	if len(hs) == 1 {
		return fn(0, hs[0])
	}
	errs := make([]error, len(hs))
	var wg sync.WaitGroup
	for i, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, h)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// tally runs a row-counting step on every handle, leaving each handle's
// count in counts and returning their sum.
func tally(hs []*superstep, counts []int64, fn func(h *superstep) (int64, error)) (int64, error) {
	err := each(hs, func(i int, h *superstep) error {
		var err error
		counts[i], err = fn(h)
		return err
	})
	var sum int64
	for _, c := range counts {
		sum += c
	}
	return sum, err
}

// prefetchWorkers is the per-handle concurrency that warms the adjacency
// pages of a selected frontier before the expansion scans them serially.
const prefetchWorkers = 8

// expandMerge is the E+M step, the one place the loop depends on how many
// handles it drives. Alone, the handle expands and merges in place — the
// round internal/fem renders for the engine's SQL level, fused unless
// Options.SeparateOperators. With peers, every handle that selected a
// frontier materializes its expansion, the loop harvests the (nid, parent, cost) candidates before the
// local merge consumes them, and routes each to the handle owning nid,
// keeping the cheapest per node (TExpand's nid is a primary key, and the
// owner's merge would pick the minimum anyway — deduping just saves
// traffic); candidates a handle produced for its own nodes were already
// merged locally. lOther and best bind the Theorem-1 prune; they are global
// values, at least as large as any handle-local view, so the prune stays
// sound; mark is the frontier's stamp. Returns the number of candidates routed.
func expandMerge(ctx context.Context, hs []*superstep, owner func(nid int64) int, forward bool, counts []int64, mark, lOther, best int64) (int, error) {
	if len(hs) == 1 {
		h := hs[0]
		_, err := h.e.runOps(ctx, h.qs, h.side(forward).ops.Round(h.e.opts.SeparateOperators),
			h.expandArgs(mark, lOther, best), sentinelArgs)
		return 0, err
	}
	harvested := make([][]frontierCand, len(hs))
	if err := each(hs, func(i int, h *superstep) error {
		if counts[i] == 0 {
			return nil
		}
		if counts[i] > 1 {
			if err := h.prefetchFrontier(ctx, forward, mark); err != nil {
				return err
			}
		}
		var err error
		harvested[i], err = h.expandHarvest(ctx, forward, mark, lOther, best)
		return err
	}); err != nil {
		return 0, err
	}
	cheapest := make(map[int64]frontierCand)
	for prod, cands := range harvested {
		for _, c := range cands {
			if owner(c.nid) == prod {
				continue
			}
			if b, ok := cheapest[c.nid]; !ok || c.cost < b.cost {
				cheapest[c.nid] = c
			}
		}
	}
	if len(cheapest) == 0 {
		return 0, nil
	}
	batches := make([][]frontierCand, len(hs))
	for _, c := range cheapest {
		o := owner(c.nid)
		batches[o] = append(batches[o], c)
	}
	return len(cheapest), each(hs, func(i int, h *superstep) error {
		return h.inject(ctx, forward, batches[i])
	})
}
