package shard

import (
	"context"
	"math/rand"
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
// Single engine: Iterations / Expansions / VisitedRows of BDJ, BSDJ, BBFS and
// BSEG equal the values recorded at PR 23, when an iteration was five
// statements (MIN(d2s + d2t), F, E+M, reset, MIN(d)) and the closing one a
// sixth MIN(d2s + d2t); an iteration is F, E+M and one statistics probe now
// and the closing one issues nothing, so Statements falls by exactly
// Iterations + Expansions a pair and what is left after 3 x Expansions —
// set-up, the visited count, path recovery — is what was left after
// 5 x Expansions + (Iterations - Expansions) then. ALT's rows were recorded
// with the change: its prune rounds re-read lf/lb, which the termination
// test then sees, so it stops earlier; its distances are checked against
// BSDJ's.
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
	}
	for _, rows := range golden {
		for i := range rows {
			rows[i].statements -= rows[i].iterations + rows[i].expansions
		}
	}
	golden[core.AlgALT] = []work{{126, 18, 15, 62}, {10, 2, 1, 4}, {226, 41, 39, 122}, {150, 24, 22, 61}, {39, 7, 5, 12}, {143, 23, 21, 73}}
	for alg, want := range golden {
		for i, p := range pairs {
			res, err := ref.Query(ctx, core.QueryRequest{Source: p[0], Target: p[1], Alg: alg})
			if err != nil {
				t.Fatalf("%v (%d,%d): %v", alg, p[0], p[1], err)
			}
			if got := workOf(res.Stats); got != want[i] {
				t.Errorf("%v pair %d (%d,%d): work %+v, recorded %+v", alg, i, p[0], p[1], got, want[i])
			}
			if alg != core.AlgALT {
				continue
			}
			exact, err := ref.Query(ctx, core.QueryRequest{Source: p[0], Target: p[1], Alg: core.AlgBSDJ})
			if err != nil || res.Distance != exact.Distance {
				t.Errorf("ALT pair %d (%d,%d): distance %d, BSDJ's %d (%v)", i, p[0], p[1], res.Distance, exact.Distance, err)
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

// TestZeroWeightDifferential crosses the edges no other search test does:
// graph.New and LoadGraph admit weight 0 (only mutations reject it), and a
// zero-weight edge is where a row the M-operator re-opens lands exactly at
// the frontier minimum l the next F binds. A random 120-node graph with
// weights in {0, 1, 2} and a SegTable at lthd 3; every answer against
// graph.MDJ, on the single engine and on two shards.
func TestZeroWeightDifferential(t *testing.T) {
	const n, lthd = 120, 3
	rng := rand.New(rand.NewSource(24))
	var edges []graph.Edge
	for i := 0; i < 3*n; i++ {
		if from, to := rng.Int63n(n), rng.Int63n(n); from != to {
			edges = append(edges, graph.Edge{From: from, To: to, Weight: rng.Int63n(3)})
		}
	}
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	ref := refEngine(t, g, lthd)
	if _, err := ref.BuildOracle(oracle.Config{K: 4}); err != nil {
		t.Fatal(err)
	}
	se, err := Open(g, Options{Shards: 2, Lthd: lthd})
	if err != nil {
		t.Fatal(err)
	}
	defer se.Close()

	ctx := context.Background()
	pairs := graph.RandomQueries(g, 150, 7)
	check := func(name string, e *core.Engine, algs ...core.Algorithm) {
		for _, p := range pairs {
			want := graph.MDJ(g, p[0], p[1])
			for _, alg := range algs {
				got, err := e.Query(ctx, core.QueryRequest{Source: p[0], Target: p[1], Alg: alg})
				if err != nil {
					t.Fatalf("%s %v (%d,%d): %v", name, alg, p[0], p[1], err)
				}
				if got.Path.Found != want.Found || (want.Found && got.Distance != want.Distance) {
					t.Fatalf("%s %v (%d,%d): found %v at %d, reference %v at %d", name, alg, p[0], p[1],
						got.Path.Found, got.Distance, want.Found, want.Distance)
				}
				if length, ok := g.PathLength(got.Path.Nodes); want.Found && (!ok || length != want.Distance) {
					t.Fatalf("%s %v (%d,%d): path %v weighs %d (edges exist: %v), shortest is %d", name, alg, p[0], p[1],
						got.Path.Nodes, length, ok, want.Distance)
				}
			}
		}
	}
	check("single", ref, core.AlgDJ, core.AlgBDJ, core.AlgBSDJ, core.AlgBSEG, core.AlgALT)
	check("k=2", se.Engine(0), core.AlgBSDJ, core.AlgBSEG)
}
