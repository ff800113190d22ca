// Landmark oracle walkthrough: build the TLandmark relation over a
// power-law graph, compare the exact ALT search (goal-directed pruning by
// landmark lower bounds) against plain BSDJ on the same workload, then
// answer the workload approximately from landmark triangulation alone and
// show that every interval brackets the exact distance.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	g := repro.PowerGraph(3000, 3, 7)
	fmt.Printf("graph: %d nodes, %d edges (power-law)\n\n", g.N, g.M())

	db, err := repro.Open(repro.DBOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	// Caching off so the comparison below measures the searches themselves.
	eng := repro.NewEngine(db, repro.EngineOptions{CacheSize: -1})
	if err := eng.LoadGraph(g); err != nil {
		log.Fatal(err)
	}

	// Build the oracle: 8 hub landmarks, exact distances both directions,
	// all computed relationally (single-source set-Dijkstra to fixpoint).
	st, err := eng.BuildOracle(repro.OracleConfig{K: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oracle: %s\n       landmarks %v\n\n", st, st.Landmarks)

	workload := repro.RandomQueries(g, 8, 3)

	// Exact search, with and without ALT pruning. Same answers, fewer
	// affected tuples: candidates whose landmark bound proves them unable
	// to improve the best path are settled without expansion.
	type tally struct {
		affected, pruned int64
		dur              time.Duration
	}
	sums := map[repro.Algorithm]*tally{repro.AlgBSDJ: {}, repro.AlgALT: {}}
	for _, q := range workload {
		var baseline int64
		for _, alg := range []repro.Algorithm{repro.AlgBSDJ, repro.AlgALT} {
			res, err := eng.Query(context.Background(), repro.QueryRequest{Source: q[0], Target: q[1], Alg: alg})
			if err != nil {
				log.Fatal(err)
			}
			if alg == repro.AlgBSDJ {
				baseline = res.Distance
			} else if res.Distance != baseline {
				log.Fatalf("ALT diverged on (%d,%d): %d vs %d", q[0], q[1], res.Distance, baseline)
			}
			sums[alg].affected += res.Stats.TuplesAffected
			sums[alg].pruned += res.Stats.PrunedRows
			sums[alg].dur += res.Stats.Total
		}
	}
	fmt.Printf("%-6s %-16s %-10s %-12s\n", "alg", "tuples affected", "pruned", "total time")
	for _, alg := range []repro.Algorithm{repro.AlgBSDJ, repro.AlgALT} {
		s := sums[alg]
		fmt.Printf("%-6v %-16d %-10d %-12v\n", alg, s.affected, s.pruned, s.dur.Round(time.Millisecond))
	}

	// Approximate answers: three aggregate SELECTs over TLandmark, no
	// touch of TEdges — the landmark triangulation interval always
	// brackets the exact distance.
	fmt.Printf("\n%-14s %-8s %-14s %s\n", "pair", "exact", "approx", "upper hit?")
	for _, q := range workload {
		iv, err := eng.DistanceInterval(context.Background(), q[0], q[1])
		if err != nil {
			log.Fatal(err)
		}
		ref := repro.MDJ(g, q[0], q[1])
		upper := "inf"
		if iv.UpperKnown() {
			upper = fmt.Sprint(iv.Upper)
		}
		exact := "-"
		if ref.Found {
			exact = fmt.Sprint(ref.Distance)
			if iv.Lower > ref.Distance || (iv.UpperKnown() && iv.Upper < ref.Distance) {
				log.Fatalf("interval [%d,%s] misses exact %d", iv.Lower, upper, ref.Distance)
			}
		}
		fmt.Printf("%-14s %-8s %-14s %v\n",
			fmt.Sprintf("(%d,%d)", q[0], q[1]), exact,
			fmt.Sprintf("[%d, %s]", iv.Lower, upper),
			iv.UpperKnown() && ref.Found && iv.Upper == ref.Distance)
	}
	fmt.Println("\nevery interval contains the exact distance; with hub landmarks on a")
	fmt.Println("power-law graph the upper bound (a real path through a landmark) is")
	fmt.Println("often the exact distance itself.")
}
