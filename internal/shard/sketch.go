package shard

import "repro/internal/graph"

// Boundary-distance sketch ("Query-by-Sketch", PAPERS.md): a deterministic
// sample of cut vertices ("portals") with exact one-to-all distances from
// and to each, precomputed in memory at load time. For a query (s, t),
//
//	bound = min over portals c of  d(s, c) + d(c, t)
//
// is the length of a real s->c->t walk in the full graph, so it is an
// admissible UPPER bound on d(s, t). The coordinator folds it into the
// stopping condition and the Theorem-1 prune: supersteps that cannot beat
// the bound terminate early, and when the bound itself is the answer the
// path is stitched from the portal's two shortest-path trees without
// touching the relational tables at all.
//
// The sketch never makes an answer inexact: termination at
// lf+lb >= bound certifies every undiscovered path is >= bound, and the
// portal walk achieves it.

type sketch struct {
	portals []int64
	// toDist[i][v] = d(v, portals[i]); toNext[i][v] = successor of v on a
	// shortest v->portal path (the parent in a reverse-graph Dijkstra).
	toDist [][]int64
	toNext [][]int64
	// fromDist[i][v] = d(portals[i], v); fromPar[i][v] = predecessor of v
	// on a shortest portal->v path.
	fromDist [][]int64
	fromPar  [][]int64
}

// buildSketch samples up to limit portals from the cut-vertex list (evenly
// strided over the sorted list, so the choice is deterministic) and runs
// one forward and one backward Dijkstra per portal on the full graph.
func buildSketch(g *graph.Graph, cutVertices []int64, limit int) *sketch {
	if limit <= 0 || len(cutVertices) == 0 {
		return nil
	}
	portals := cutVertices
	if len(portals) > limit {
		sampled := make([]int64, 0, limit)
		stride := float64(len(portals)) / float64(limit)
		for i := 0; i < limit; i++ {
			sampled = append(sampled, portals[int(float64(i)*stride)])
		}
		portals = sampled
	}
	sk := &sketch{
		portals:  portals,
		toDist:   make([][]int64, len(portals)),
		toNext:   make([][]int64, len(portals)),
		fromDist: make([][]int64, len(portals)),
		fromPar:  make([][]int64, len(portals)),
	}
	for i, c := range portals {
		sk.fromDist[i], sk.fromPar[i] = graph.OneToAll(g, c, true)
		sk.toDist[i], sk.toNext[i] = graph.OneToAll(g, c, false)
	}
	return sk
}

// Bound returns the best portal upper bound on d(s, t) and the achieving
// portal index; ok=false when no portal connects s to t.
func (sk *sketch) Bound(s, t int64) (int64, int, bool) {
	best, bestIdx := int64(0), -1
	for i := range sk.portals {
		ds, dt := sk.toDist[i][s], sk.fromDist[i][t]
		if ds >= graph.Infinity || dt >= graph.Infinity {
			continue
		}
		if bestIdx < 0 || ds+dt < best {
			best, bestIdx = ds+dt, i
		}
	}
	return best, bestIdx, bestIdx >= 0
}

// Path stitches the s -> portal -> t walk for portal index pi out of the
// precomputed trees. The two halves are shortest paths, so when Bound(s,t)
// equals d(s,t) the walk is a shortest s-t path.
func (sk *sketch) Path(s, t int64, pi int) []int64 {
	c := sk.portals[pi]
	nodes := []int64{s}
	for cur := s; cur != c; {
		cur = sk.toNext[pi][cur]
		nodes = append(nodes, cur)
	}
	// Walk t back to the portal, then reverse in place onto the prefix.
	mark := len(nodes)
	for cur := t; cur != c; cur = sk.fromPar[pi][cur] {
		nodes = append(nodes, cur)
	}
	for i, j := mark, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	return nodes
}
