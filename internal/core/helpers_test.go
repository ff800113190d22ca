package core

import (
	"context"
	"maps"
	"sync"

	"repro/internal/graph"
)

// shortestPath is the test-suite shim for the pre-PR5 Engine.ShortestPath
// wrapper: one exact query with an explicit algorithm hint.
func shortestPath(e *Engine, alg Algorithm, s, t int64) (Path, *QueryStats, error) {
	res, err := e.Query(context.Background(), QueryRequest{Source: s, Target: t, Alg: alg})
	return res.Path, res.Stats, err
}

// approxDistance is the test-suite shim for the pre-PR5 Engine.ApproxDistance
// wrapper: one oracle interval read under a shared gate admission.
func approxDistance(e *Engine, s, t int64) (Interval, error) {
	return e.DistanceInterval(context.Background(), s, t)
}

// unitWeights copies g with every edge at weight 1: its distances are
// Reachable's hops.
func unitWeights(g *graph.Graph) *graph.Graph {
	unit := make([]graph.Edge, len(g.Edges))
	for i, ed := range g.Edges {
		unit[i] = graph.Edge{From: ed.From, To: ed.To, Weight: 1}
	}
	out, err := graph.New(g.N, unit)
	if err != nil {
		panic(err)
	}
	return out
}

// textsRun records the text of every statement e's statement path runs from
// now on; the returned function reads the set so far.
func textsRun(e *Engine) func() map[string]bool {
	var mu sync.Mutex
	texts := map[string]bool{}
	e.ran = func(q string) {
		mu.Lock()
		texts[q] = true
		mu.Unlock()
	}
	return func() map[string]bool {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(texts)
	}
}
