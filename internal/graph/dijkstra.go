package graph

import (
	"container/heap"
)

// Infinity is the sentinel distance for unreachable nodes.
const Infinity = int64(1) << 50

// PathResult reports one shortest-path computation.
type PathResult struct {
	Found    bool
	Distance int64
	Path     []int64 // node ids s..t, empty when !Found
	Visited  int     // settled nodes (search-space metric)
}

// pqItem is a priority-queue entry.
type pqItem struct {
	node int64
	dist int64
}

type pq []pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any          { old := *p; n := len(old); it := old[n-1]; *p = old[:n-1]; return it }

// MDJ is the in-memory single-directional Dijkstra baseline (the paper's
// MDJ competitor). It stops as soon as t is settled.
func MDJ(g *Graph, s, t int64) PathResult {
	dist := map[int64]int64{s: 0}
	parent := map[int64]int64{s: s}
	done := map[int64]bool{}
	q := &pq{{node: s, dist: 0}}
	visited := 0
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		visited++
		if u == t {
			return PathResult{Found: true, Distance: it.dist, Path: buildPath(parent, s, t), Visited: visited}
		}
		g.OutEdges(u, func(v, w int64) {
			nd := it.dist + w
			if d, ok := dist[v]; !ok || nd < d {
				dist[v] = nd
				parent[v] = u
				heap.Push(q, pqItem{node: v, dist: nd})
			}
		})
	}
	return PathResult{Found: false, Distance: Infinity, Visited: visited}
}

// OneToAll is a one-to-all Dijkstra from src over the full graph: forward
// follows out-edges (dist[v] = d(src, v), link[v] = predecessor on the
// tree path), backward follows in-edges (dist[v] = d(v, src), link[v] =
// successor toward src). Unreachable nodes keep Infinity / -1.
func OneToAll(g *Graph, src int64, forward bool) (dist, link []int64) {
	dist = make([]int64, g.N)
	link = make([]int64, g.N)
	for i := range dist {
		dist[i] = Infinity
		link[i] = -1
	}
	dist[src] = 0
	done := make([]bool, g.N)
	q := &pq{{node: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		relax := func(v, w int64) {
			if nd := it.dist + w; nd < dist[v] {
				dist[v] = nd
				link[v] = it.node
				heap.Push(q, pqItem{node: v, dist: nd})
			}
		}
		if forward {
			g.OutEdges(it.node, relax)
		} else {
			g.InEdges(it.node, relax)
		}
	}
	return dist, link
}

func buildPath(parent map[int64]int64, s, t int64) []int64 {
	var rev []int64
	for x := t; ; x = parent[x] {
		rev = append(rev, x)
		if x == s {
			break
		}
	}
	out := make([]int64, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// MBDJ is the in-memory bi-directional Dijkstra baseline (the paper's MBDJ
// competitor): forward search over outgoing edges, backward over incoming,
// terminating when topF + topB >= the best meeting distance.
func MBDJ(g *Graph, s, t int64) PathResult {
	if s == t {
		return PathResult{Found: true, Distance: 0, Path: []int64{s}, Visited: 1}
	}
	distF := map[int64]int64{s: 0}
	distB := map[int64]int64{t: 0}
	parF := map[int64]int64{s: s}
	parB := map[int64]int64{t: t}
	doneF := map[int64]bool{}
	doneB := map[int64]bool{}
	qf := &pq{{node: s, dist: 0}}
	qb := &pq{{node: t, dist: 0}}
	best := Infinity
	var meet int64 = -1
	visited := 0

	update := func(x int64) {
		df, okf := distF[x]
		db, okb := distB[x]
		if okf && okb && df+db < best {
			best = df + db
			meet = x
		}
	}

	for qf.Len() > 0 || qb.Len() > 0 {
		topF, topB := Infinity, Infinity
		if qf.Len() > 0 {
			topF = (*qf)[0].dist
		}
		if qb.Len() > 0 {
			topB = (*qb)[0].dist
		}
		if topF+topB >= best {
			break
		}
		if topF <= topB && qf.Len() > 0 {
			it := heap.Pop(qf).(pqItem)
			u := it.node
			if doneF[u] {
				continue
			}
			doneF[u] = true
			visited++
			g.OutEdges(u, func(v, w int64) {
				nd := it.dist + w
				if d, ok := distF[v]; !ok || nd < d {
					distF[v] = nd
					parF[v] = u
					heap.Push(qf, pqItem{node: v, dist: nd})
					update(v)
				}
			})
		} else if qb.Len() > 0 {
			it := heap.Pop(qb).(pqItem)
			u := it.node
			if doneB[u] {
				continue
			}
			doneB[u] = true
			visited++
			g.InEdges(u, func(v, w int64) {
				nd := it.dist + w
				if d, ok := distB[v]; !ok || nd < d {
					distB[v] = nd
					parB[v] = u
					heap.Push(qb, pqItem{node: v, dist: nd})
					update(v)
				}
			})
		} else {
			break
		}
	}
	if meet < 0 {
		return PathResult{Found: false, Distance: Infinity, Visited: visited}
	}
	half1 := buildPath(parF, s, meet)
	var half2 []int64
	for x := meet; x != t; x = parB[x] {
		half2 = append(half2, parB[x])
	}
	path := append(half1, half2...)
	return PathResult{Found: true, Distance: best, Path: path, Visited: visited}
}

// PathLength sums the cheapest-edge weights along a node sequence,
// returning ok=false if some hop has no edge. Used by tests to validate
// recovered paths against the graph.
func (g *Graph) PathLength(path []int64) (int64, bool) {
	if len(path) == 0 {
		return 0, false
	}
	var total int64
	for i := 0; i+1 < len(path); i++ {
		w := int64(-1)
		g.OutEdges(path[i], func(v, ew int64) {
			if v == path[i+1] && (w < 0 || ew < w) {
				w = ew
			}
		})
		if w < 0 {
			return 0, false
		}
		total += w
	}
	return total, true
}
