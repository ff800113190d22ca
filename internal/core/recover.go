package core

import (
	"context"
	"fmt"
	"slices"
)

// Path recovery (the FPR phase of Fig 6(b)): walk the p2s links from the
// meeting node back to s, and the p2t links forward to t, one SELECT per
// hop (Listing 3(3)). Under BSEG each hop is a pre-computed segment whose
// interior nodes are unfolded through the SegTable's pid chains.
//
// Every visited row consulted here is read at the node's OWNER handle:
// owner rows receive every routed candidate, so at termination they hold
// the exact global distances and the parent links that produced them —
// walking the chains at owners is walking one global shortest-path tree,
// even when consecutive hops were discovered by different peers.

// recoverPath locates a node on the optimal path (Listing 4(6)) and
// concatenates the two half-paths (lines 17-20 of Algorithm 2).
func recoverPath(ctx context.Context, hs []*superstep, owner func(nid int64) int, s, t, minCost int64, segs bool) ([]int64, error) {
	meet := int64(-1)
	for _, h := range hs {
		m, null, err := h.e.queryInt(ctx, h.qs, &h.qs.FPR, h.sc.meet, minCost)
		if err != nil {
			return nil, err
		}
		if !null {
			meet = m
			break
		}
	}
	if meet < 0 {
		return nil, fmt.Errorf("core: no meeting node for minCost=%d", minCost)
	}
	p0, err := walkChain(ctx, hs, owner, meet, s, true, segs)
	if err != nil {
		return nil, err
	}
	p1, err := walkChain(ctx, hs, owner, meet, t, false, segs)
	if err != nil {
		return nil, err
	}
	return append(p0, p1[1:]...), nil
}

// walkChain follows one direction's parent links from node x to end (p2s
// links to s forward, p2t links to t backward) and returns the path
// between them in path order: s..x forward, x..t backward.
func walkChain(ctx context.Context, hs []*superstep, owner func(nid int64) int, x, end int64, forward, segs bool) ([]int64, error) {
	out := []int64{x}
	guard := hs[0].e.nodes + 2
	for cur, step := x, 0; cur != end; step++ {
		if step > guard {
			return nil, fmt.Errorf("core: parent chain longer than node count (cycle?)")
		}
		h := hs[owner(cur)]
		q := h.sc.recP2T
		if forward {
			q = h.sc.recP2S
		}
		p, null, err := h.e.queryInt(ctx, h.qs, &h.qs.FPR, q, cur)
		if err != nil {
			return nil, err
		}
		if null || p == NoParent {
			return nil, fmt.Errorf("core: broken parent chain at node %d", cur)
		}
		if segs && p != cur {
			interior, err := unfoldHop(ctx, hs, owner, forward, p, cur)
			if err != nil {
				return nil, err
			}
			out = append(out, interior...)
		}
		out = append(out, p)
		cur = p
	}
	if forward {
		slices.Reverse(out)
	}
	return out, nil
}

// unfoldHop expands the segment behind the chain hop parent->cur into its
// interior nodes, ordered from cur toward parent. A lone handle relaxed the
// hop over its own segment table. With peers, several may record a segment
// between the two nodes over their different subgraphs, so the hop is
// unfolded where one is recorded at exactly the distance difference the
// owner rows show: such a segment is a globally shortest path between the
// two, hence shortest in that peer's subgraph too, so its pid chain (which
// needs the prefix/suffix property) unfolds it soundly.
func unfoldHop(ctx context.Context, hs []*superstep, owner func(nid int64) int, forward bool, parent, cur int64) ([]int64, error) {
	// TOutSegs records the forward hop parent->cur; the backward chain runs
	// cur->parent toward t, which TInSegs records.
	u, v := cur, parent
	if forward {
		u, v = parent, cur
	}
	if len(hs) == 1 {
		return hs[0].e.unfoldSegment(ctx, hs[0].qs, forward, u, v)
	}
	var d [2]int64
	for i, nid := range []int64{cur, parent} {
		h := hs[owner(nid)]
		q := h.sc.distB
		if forward {
			q = h.sc.distF
		}
		dist, null, err := h.e.queryInt(ctx, h.qs, &h.qs.FPR, q, nid)
		if err != nil {
			return nil, err
		}
		if null {
			return nil, fmt.Errorf("core: no distance for chain node %d", nid)
		}
		d[i] = dist
	}
	costQ := "SELECT cost FROM " + TblInSegs + " WHERE fid = ? AND tid = ?"
	if forward {
		costQ = "SELECT cost FROM " + TblOutSegs + " WHERE fid = ? AND tid = ?"
	}
	for _, h := range hs {
		c, null, err := h.e.queryInt(ctx, h.qs, &h.qs.FPR, costQ, u, v)
		if err != nil {
			return nil, err
		}
		if !null && c == d[0]-d[1] {
			return h.e.unfoldSegment(ctx, h.qs, forward, u, v)
		}
	}
	return nil, fmt.Errorf("core: no handle records segment (%d,%d) at cost %d", u, v, d[0]-d[1])
}

// unfoldSegment returns the interior nodes of the shortest segment u -> v,
// ordered from the end a parent chain arrives at. Forward reads TOutSegs,
// whose pid is the predecessor of tid: every prefix of a shortest segment
// is itself recorded, so (u,v) -> (u,pre(v)) -> ... terminates at u, and
// the interior comes out closest-to-v first. Backward reads TInSegs, whose
// pid is the successor of fid: every suffix is recorded, so (u,v) ->
// (pid,v) -> ... reaches v, and the interior comes out in path order.
func (e *Engine) unfoldSegment(ctx context.Context, qs *QueryStats, forward bool, u, v int64) ([]int64, error) {
	tbl, cur, last := TblInSegs, u, v
	q := "SELECT pid FROM " + TblInSegs + " WHERE fid = ? AND tid = ?"
	if forward {
		tbl, cur, last = TblOutSegs, v, u
		q = "SELECT pid FROM " + TblOutSegs + " WHERE fid = ? AND tid = ?"
	}
	var out []int64
	for step := 0; step <= e.nodes+2; step++ {
		fid, tid := cur, v
		if forward {
			fid, tid = u, cur
		}
		p, null, err := e.queryInt(ctx, qs, &qs.FPR, q, fid, tid)
		if err != nil {
			return nil, err
		}
		if null {
			return nil, fmt.Errorf("core: missing %s entry (%d,%d)", tbl, fid, tid)
		}
		if p == last {
			return out, nil
		}
		out = append(out, p)
		cur = p
	}
	return nil, fmt.Errorf("core: %s pid chain for (%d,%d) does not terminate", tbl, u, v)
}
