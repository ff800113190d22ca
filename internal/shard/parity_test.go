package shard

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// work is the per-query envelope the parity test pins: how many statements,
// loop rounds, expansions and visited rows one search costs.
type work struct{ statements, iterations, expansions, visited int }

func workOf(qs *core.QueryStats) work {
	return work{qs.Statements, qs.Iterations, qs.Expansions, qs.VisitedRows}
}

// TestFEMParity pins the work envelope of the one FEM loop on
// graph.Power(400, 3, 11) over six fixed pairs.
//
// Single engine: Statements / Iterations / Expansions / VisitedRows of every
// bi-directional algorithm equal the values recorded at the commit before
// the single loop and the shard coordinator were merged — the merge changed
// where the loop lives, not what it issues.
//
// k = 1: a 1-shard engine is that same engine with an empty peer list — the
// same code path — so its work envelope equals the single engine's.
func TestFEMParity(t *testing.T) {
	const lthd = 30
	g := graph.Power(400, 3, 11)
	pairs := graph.RandomQueries(g, 6, 5)
	ref := refEngine(t, g, lthd)
	if _, err := ref.BuildOracle(oracle.Config{K: 4}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	golden := map[core.Algorithm][]work{
		core.AlgBDJ:  {{100, 19, 18, 78}, {13, 2, 1, 4}, {1008, 200, 199, 277}, {97, 18, 17, 45}, {30, 5, 4, 9}, {414, 81, 80, 155}},
		core.AlgBSDJ: {{125, 24, 23, 66}, {13, 2, 1, 4}, {348, 68, 67, 129}, {212, 41, 40, 63}, {135, 26, 25, 28}, {389, 76, 75, 117}},
		core.AlgBBFS: {{50, 9, 8, 95}, {23, 4, 3, 4}, {73, 13, 12, 180}, {57, 10, 9, 30}, {50, 9, 8, 28}, {84, 15, 14, 147}},
		core.AlgBSEG: {{53, 9, 8, 63}, {14, 2, 1, 4}, {99, 17, 16, 140}, {72, 12, 11, 28}, {58, 10, 9, 28}, {101, 17, 16, 117}},
		core.AlgALT:  {{133, 20, 15, 62}, {13, 2, 1, 4}, {388, 60, 55, 125}, {165, 25, 22, 61}, {49, 8, 5, 12}, {183, 27, 22, 73}},
	}
	for alg, want := range golden {
		for i, p := range pairs {
			res, err := ref.Query(ctx, core.QueryRequest{Source: p[0], Target: p[1], Alg: alg})
			if err != nil {
				t.Fatalf("%v (%d,%d): %v", alg, p[0], p[1], err)
			}
			if got := workOf(res.Stats); got != want[i] {
				t.Errorf("%v pair %d (%d,%d): work %+v, recorded %+v", alg, i, p[0], p[1], got, want[i])
			}
		}
	}

	se, err := Open(g, Options{Shards: 1, Lthd: lthd})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()
	for _, alg := range []core.Algorithm{core.AlgBSDJ, core.AlgBBFS, core.AlgBSEG} {
		for i, p := range pairs {
			req := core.QueryRequest{Source: p[0], Target: p[1], Alg: alg}
			want, err := ref.Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := se.Query(ctx, req)
			if err != nil {
				t.Fatalf("%v k=1 (%d,%d): %v", alg, p[0], p[1], err)
			}
			if got.Distance != want.Distance || workOf(got.Stats) != workOf(want.Stats) {
				t.Errorf("%v pair %d: k=1 distance %d with work %+v, single %d with %+v", alg, i,
					got.Distance, workOf(got.Stats), want.Distance, workOf(want.Stats))
			}
		}
	}
}
