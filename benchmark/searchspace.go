package main

import (
	"container/heap"

	"repro/internal/graph"
)

// searchSpace counts the nodes the paper's bi-directional set Dijkstra
// (Algorithm 2) touches for the pair (s, t), run in memory on g: both
// directions keep a distance per reached node, every round expands all
// unexpanded nodes at the minimal distance of the direction whose last
// frontier was the smaller (§4.1), a candidate that cannot beat the best
// meeting cost is not kept (Theorem 1), and the search stops when the two
// minima add up to that cost. It is how the benchmark ranks candidate pairs:
// the count is a property of the graph and the paper's algorithm, not of the
// program under test, and on the seed commit it correlates 0.93-0.98 with
// the latency of both BSDJ and BSEG searches, where the settled-node count of
// graph.MBDJ, which balances its directions by distance, reaches 0.5-0.7.
func searchSpace(g *graph.Graph, s, t int64) int {
	if s == t {
		return 1
	}
	const inf = int64(1) << 60
	f := &side{dist: map[int64]int64{s: 0}, done: map[int64]bool{}, open: &nodeHeap{{s, 0}}, last: 1}
	b := &side{dist: map[int64]int64{t: 0}, done: map[int64]bool{}, open: &nodeHeap{{t, 0}}, last: 1}
	best := inf
	for best == inf || f.min+b.min < best {
		_, okF := f.top()
		_, okB := b.top()
		if !okF && !okB {
			break
		}
		forward := okF && (!okB || f.last <= b.last)
		sd, other := f, b
		if !forward {
			sd, other = b, f
		}
		d, _ := sd.top()
		sd.last = 0
		for {
			if d2, ok := sd.top(); !ok || d2 != d {
				break
			}
			u := heap.Pop(sd.open).(nodeDist).node
			sd.done[u] = true
			sd.last++
			relax := func(v, w int64) {
				nd := d + w
				if nd+other.min >= best {
					return
				}
				if old, ok := sd.dist[v]; !ok || nd < old {
					sd.dist[v] = nd
					heap.Push(sd.open, nodeDist{v, nd})
					if od, ok := other.dist[v]; ok && nd+od < best {
						best = nd + od
					}
				}
			}
			if forward {
				g.OutEdges(u, relax)
			} else {
				g.InEdges(u, relax)
			}
		}
		if l, ok := sd.top(); ok {
			sd.min = l
		}
	}
	touched := len(f.dist)
	for x := range b.dist {
		if _, both := f.dist[x]; !both {
			touched++
		}
	}
	return touched
}

// side is one direction of searchSpace.
type side struct {
	dist map[int64]int64
	done map[int64]bool
	open *nodeHeap // reached nodes by distance, with stale entries
	min  int64     // minimal distance among the unexpanded nodes
	last int       // size of the last frontier
}

// top is the minimal distance among the unexpanded nodes.
func (sd *side) top() (int64, bool) {
	for sd.open.Len() > 0 {
		it := (*sd.open)[0]
		if !sd.done[it.node] && sd.dist[it.node] == it.dist {
			return it.dist, true
		}
		heap.Pop(sd.open)
	}
	return 0, false
}

type nodeDist struct{ node, dist int64 }

type nodeHeap []nodeDist

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
