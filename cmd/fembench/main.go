// Command fembench regenerates the paper's evaluation tables and figures
// and runs the two scaling sweeps only a simulated seek can answer.
//
// Usage:
//
//	fembench -list
//	fembench -exp table2,fig6a
//	fembench -exp all -queries 10 -scale 1.0 -v
//	fembench -exp parallel -v -json .          # BENCH_parallel.json
//	fembench -exp shard -queries 16 -json .    # BENCH_shard.json
//
// Each experiment prints a table whose rows mirror the corresponding
// artefact in the paper; every answer is checked against the in-memory
// Dijkstra while it is measured. `all` is the 24 paper artefacts — the
// sweeps take minutes and are asked for by name. With -json <dir>, every
// run also writes BENCH_<id>.json (table rows plus run config and wall
// time; per-level QPS for parallel). Serving, mutation, recovery and index
// latency are measured by benchmark/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiment ids and exit")
		exps    = flag.String("exp", "all", "comma-separated experiment ids, or 'all' for the paper's artefacts")
		queries = flag.Int("queries", 5, "queries per data point (paper: 100)")
		scale   = flag.Float64("scale", 1.0, "workload scale multiplier")
		seed    = flag.Int64("seed", 42, "generator seed")
		verbose = flag.Bool("v", false, "progress output")
		dataDir = flag.String("datadir", "", "directory for file-backed databases (default: temp)")
		jsonDir = flag.String("json", "", "also write machine-readable BENCH_<id>.json files into this directory")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Doc)
		}
		return
	}

	cfg := bench.Config{Queries: *queries, Scale: *scale, Seed: *seed, DataDir: *dataDir}
	if *verbose {
		cfg.Verbose = os.Stderr
	}

	var ids []string
	if strings.EqualFold(*exps, "all") {
		for _, f := range bench.Figures {
			ids = append(ids, f.ID)
		}
	} else {
		for _, id := range strings.Split(*exps, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	start := time.Now()
	failed := 0
	for _, id := range ids {
		e, ok := bench.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			failed++
			continue
		}
		t0 := time.Now()
		tab, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed++
			continue
		}
		tab.Fprint(os.Stdout)
		fmt.Printf("   (regenerated in %v)\n\n", time.Since(t0).Round(time.Millisecond))
		if *jsonDir != "" {
			path, err := tab.WriteJSON(*jsonDir, cfg, time.Since(t0))
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing JSON: %v\n", id, err)
				failed++
				continue
			}
			fmt.Printf("   wrote %s\n\n", path)
		}
	}
	fmt.Printf("done: %d experiment(s) in %v\n", len(ids)-failed, time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		os.Exit(1)
	}
}
