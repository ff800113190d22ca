package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &rs, nil
}

// values collects one metric of one workload over the runs of a set.
func (rs *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range rs.Runs {
		if res := run[workload]; res != nil {
			if v, ok := res.Metrics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// Verdicts of one (metric, workload) pairing, B read against A.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// minPairs is the fewest decided pairs a gain may be claimed on.
const minPairs = 5

// verdict applies the rules of the choosing-metrics guide (§6, §8) to two
// sets of runs, a the parent and b the change:
//
//   - improved: b wins at least nine tenths of the pairs (run i of a against
//     run i of b, ties counting for neither, at least minPairs decided) and
//     the medians differ by more than the distance between a's quartiles;
//   - regressed: b's median is worse than a's by more than the bound;
//   - unresolved: neither, and a set's quartile spread is wider than the
//     bound, so the runs cannot tell;
//   - unchanged otherwise.
func verdict(a, b []float64, d metricDef) string {
	sign := 1.0 // positive gain = better
	if d.Better == "lower" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	iqrA := quantile(a, 0.75) - quantile(a, 0.25)
	iqrB := quantile(b, 0.75) - quantile(b, 0.25)
	wins, decided := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			decided++
			if sign*(b[i]-a[i]) > 0 {
				wins++
			}
		}
	}
	gain := sign * (mb - ma)
	switch {
	case decided >= minPairs && float64(wins) >= 0.9*float64(decided) && gain > iqrA:
		return verdictImproved
	case ma != 0 && -gain/abs(ma) > d.Bound:
		return verdictRegressed
	case ma != 0 && (iqrA/abs(ma) > d.Bound || iqrB/abs(ma) > d.Bound):
		return verdictUnresolved
	}
	return verdictUnchanged
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// allEqual reports whether every value of a and b is the same number.
func allEqual(a, b []float64) bool {
	for _, v := range append(append([]float64(nil), a...), b...) {
		if v != a[0] {
			return false
		}
	}
	return true
}

// exactCounts are the page and byte counts that one seed must reproduce bit
// for bit on the workloads with a single client. serve_http has two, and its
// counts move with how their requests interleave.
var (
	exactCounts  = []string{"phys_reads_per_query", "phys_writes_per_query", "stored_bytes_per_edge"}
	singleClient = []string{"hot_bsdj", "cold_bseg", "mutate_mix"}
)

// compareFiles prints one row per (end-to-end metric, workload) with both
// sets' medians and quartiles and the verdict, then whether the exact counts
// repeated. It fails if anything regressed.
func compareFiles(sp *spec, pathA, pathB string) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A: %s  (%d runs, commit %s, seed %d)\nB: %s  (%d runs, commit %s, seed %d)\n",
		pathA, len(a.Runs), a.Record.Commit, a.Record.Seed, pathB, len(b.Runs), b.Record.Commit, b.Record.Seed)
	fmt.Printf("%-22s %-11s %-6s %12s %25s %12s %25s %8s %6s  %s\n",
		"metric", "workload", "unit", "A median", "A quartiles", "B median", "B quartiles", "B vs A", "bound", "verdict")
	counts := map[string]int{}
	for _, d := range sp.EndToEnd {
		for _, w := range sp.Workloads {
			va, vb := a.values(w.Name, d.Name), b.values(w.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(va, vb, d)
			counts[v]++
			quart := func(x []float64) string { return fmt.Sprintf("[%.4g, %.4g]", quantile(x, 0.25), quantile(x, 0.75)) }
			fmt.Printf("%-22s %-11s %-6s %12.4f %25s %12.4f %25s %+7.1f%% %5.0f%%  %s\n",
				d.Name, w.Name, d.Unit, median(va), quart(va), median(vb), quart(vb),
				100*ratio(median(vb)-median(va), median(va)), 100*d.Bound, v)
		}
	}
	fmt.Printf("%d improved, %d unchanged, %d regressed, %d unresolved\n",
		counts[verdictImproved], counts[verdictUnchanged], counts[verdictRegressed], counts[verdictUnresolved])
	for _, name := range exactCounts {
		for _, w := range singleClient {
			va, vb := a.values(w, name), b.values(w, name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			same := "identical in every run"
			if !allEqual(va, vb) {
				same = fmt.Sprintf("VARIES: A %v  B %v", va, vb)
			}
			fmt.Printf("count %-24s %-11s %s\n", name, w, same)
		}
	}
	if counts[verdictRegressed] > 0 {
		return fmt.Errorf("%d pairings regressed", counts[verdictRegressed])
	}
	return nil
}
