package core

import "context"

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
