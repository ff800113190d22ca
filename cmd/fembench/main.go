// Command fembench regenerates the paper's evaluation tables and figures,
// and doubles as the load generator for the concurrent serving tier.
//
// Usage:
//
//	fembench -list
//	fembench -exp table2,fig6a
//	fembench -exp all -queries 10 -scale 1.0 -v
//	fembench -exp oracle-alt -json bench-results
//	fembench -exp mutation-throughput -json bench-results   # BENCH_mutations.json
//	fembench -loadgen -clients 16 -lgalg BSEG -lgqueries 50 -repeat 5
//	fembench -loadgen -parallel 1,2,4 -json .          # BENCH_parallel.json
//	fembench -soak -duration 30s -window 5s -json .    # BENCH_soak.json
//
// Each experiment prints a table whose rows mirror the corresponding
// artefact in the paper. The -loadgen mode replays a query set from
// a pool of concurrent clients against one shared engine, once with a cold
// path cache and once hot, and reports queries/sec for each round. The
// -soak mode drives sustained mixed read/mutation load for a fixed wall
// clock and reports windowed p50/p95/p99/max latency plus the gate-wait
// share per window — the serving-hygiene view the one-shot modes miss.
//
// With -json <dir>, every run additionally writes machine-readable
// BENCH_<name>.json files (table rows plus run config and wall time;
// cold/hot QPS for -loadgen) so the perf trajectory is recorded as a CI
// artifact instead of scrolling away in logs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list experiment ids and exit")
		exps    = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		queries = flag.Int("queries", 5, "queries per data point (paper: 100)")
		scale   = flag.Float64("scale", 1.0, "workload scale multiplier")
		seed    = flag.Int64("seed", 42, "generator seed")
		verbose = flag.Bool("v", false, "progress output")
		dataDir = flag.String("datadir", "", "directory for file-backed databases (default: temp)")
		jsonDir = flag.String("json", "", "also write machine-readable BENCH_<name>.json files into this directory")

		loadgen   = flag.Bool("loadgen", false, "run the serving-tier load generator instead of experiments")
		parallel  = flag.String("parallel", "", "loadgen: comma-separated concurrency levels (e.g. 1,2,4) — run the parallel cold-read scaling sweep instead of the cold/hot rounds")
		clients   = flag.Int("clients", 8, "loadgen: concurrent client workers")
		lgAlg     = flag.String("lgalg", "BSDJ", "loadgen: algorithm (AUTO|DJ|BDJ|BSDJ|BBFS|BSEG|ALT)")
		lgNodes   = flag.Int64("lgnodes", 5000, "loadgen: power-graph node count")
		lgQueries = flag.Int("lgqueries", 20, "loadgen: distinct query pairs")
		repeat    = flag.Int("repeat", 5, "loadgen: replays of each pair per round")
		lthd      = flag.Int64("lthd", 20, "loadgen: SegTable threshold for BSEG")

		soak     = flag.Bool("soak", false, "run the sustained-load soak benchmark instead of experiments")
		soakDur  = flag.Duration("duration", 10*time.Second, "soak: measured wall-clock span")
		soakWin  = flag.Duration("window", 2*time.Second, "soak: percentile window width")
		soakMut  = flag.Duration("mutate-every", 500*time.Millisecond, "soak: mutation batch cadence (0 = pure reads)")
		soakPair = flag.Int("pairs", 64, "soak: distinct query pairs cycled by readers")
	)
	flag.Parse()

	if *soak {
		runSoak(*lgAlg, *lgNodes, *soakDur, *soakWin, *soakMut, *soakPair,
			*clients, *lthd, *seed, *verbose, *jsonDir, *dataDir)
		return
	}

	if *loadgen {
		if *parallel != "" {
			// The parallel sweep has its own tuned graph and query-count
			// defaults; -lgnodes/-lgqueries override only when given.
			nodes, queries := int64(0), 0
			flag.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "lgnodes":
					nodes = *lgNodes
				case "lgqueries":
					queries = *lgQueries
				}
			})
			runParallelLoadGen(*lgAlg, nodes, queries, *parallel, *verbose, *jsonDir)
			return
		}
		runLoadGen(*lgAlg, *lgNodes, *lgQueries, *repeat, *clients, *lthd, *seed, *verbose, *jsonDir)
		return
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-20s %s\n", e.ID, e.Doc)
		}
		return
	}

	cfg := bench.DefaultConfig()
	cfg.Queries = *queries
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.DataDir = *dataDir
	if *verbose {
		cfg.Verbose = os.Stderr
	}

	var ids []string
	if strings.EqualFold(*exps, "all") {
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*exps, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	start := time.Now()
	failed := 0
	for _, id := range ids {
		fn, ok := bench.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			failed++
			continue
		}
		t0 := time.Now()
		tab, err := fn(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed++
			continue
		}
		tab.Fprint(os.Stdout)
		fmt.Printf("   (regenerated in %v)\n\n", time.Since(t0).Round(time.Millisecond))
		if *jsonDir != "" {
			path, err := bench.WriteTableJSON(*jsonDir, tab, cfg, time.Since(t0))
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

func runLoadGen(algName string, nodes int64, queries, repeat, clients int, lthd, seed int64, verbose bool, jsonDir string) {
	alg, err := core.ParseAlgorithm(algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := bench.DefaultLoadGenConfig()
	cfg.Alg = alg
	cfg.Nodes = nodes
	cfg.Queries = queries
	cfg.Repeat = repeat
	cfg.Clients = clients
	cfg.Lthd = lthd
	cfg.Seed = seed
	logf := func(string, ...any) {}
	if verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	res, err := bench.RunLoadGen(cfg, logf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	bench.LoadGenTable(cfg, res).Fprint(os.Stdout)
	if jsonDir != "" {
		path, err := bench.WriteLoadGenJSON(jsonDir, cfg, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: writing JSON: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("   wrote %s\n", path)
	}
	if res.Errors > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d queries failed\n", res.Errors)
		os.Exit(1)
	}
}

func runSoak(algName string, nodes int64, dur, window, mutEvery time.Duration, pairs, clients int, lthd, seed int64, verbose bool, jsonDir, dataDir string) {
	alg, err := core.ParseAlgorithm(algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := bench.DefaultSoakConfig()
	cfg.Alg = alg
	cfg.Nodes = nodes
	cfg.Duration = dur
	cfg.Window = window
	cfg.MutateEvery = mutEvery
	cfg.Pairs = pairs
	cfg.Clients = clients
	cfg.Lthd = lthd
	cfg.Seed = seed
	if dataDir != "" {
		// -datadir doubles as the soak durability directory: mutations are
		// WAL-fsynced and each window reports the fsync share.
		d, err := os.MkdirTemp(dataDir, "soak_durable_")
		if err != nil {
			fmt.Fprintf(os.Stderr, "soak: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(d)
		cfg.DataDir = d
	}
	logf := func(string, ...any) {}
	if verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	res, err := bench.RunSoak(cfg, logf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		os.Exit(1)
	}
	bench.SoakTable(cfg, res).Fprint(os.Stdout)
	if jsonDir != "" {
		path, err := bench.WriteSoakJSON(jsonDir, cfg, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "soak: writing JSON: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("   wrote %s\n", path)
	}
	if res.Overall.Errors > 0 || res.MutationErrors > 0 {
		fmt.Fprintf(os.Stderr, "soak: %d query errors, %d mutation errors\n",
			res.Overall.Errors, res.MutationErrors)
		os.Exit(1)
	}
}

func runParallelLoadGen(algName string, nodes int64, queries int, levels string, verbose bool, jsonDir string) {
	alg, err := core.ParseAlgorithm(algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := bench.DefaultParallelLoadGenConfig()
	cfg.Alg = alg
	if nodes > 0 {
		cfg.Nodes = nodes
	}
	if queries > 0 {
		cfg.Queries = queries
	}
	cfg.Levels = nil
	for _, part := range strings.Split(levels, ",") {
		var lv int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &lv); err != nil || lv < 1 {
			fmt.Fprintf(os.Stderr, "bad concurrency level %q in -parallel\n", part)
			os.Exit(1)
		}
		cfg.Levels = append(cfg.Levels, lv)
	}
	logf := func(string, ...any) {}
	if verbose {
		logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	res, err := bench.RunParallelLoadGen(cfg, logf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parallel loadgen: %v\n", err)
		os.Exit(1)
	}
	bench.ParallelLoadGenTable(cfg, res).Fprint(os.Stdout)
	if jsonDir != "" {
		path, err := bench.WriteParallelJSON(jsonDir, cfg, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parallel loadgen: writing JSON: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("   wrote %s\n", path)
	}
	for _, lv := range res.Levels {
		if lv.Errors > 0 {
			fmt.Fprintf(os.Stderr, "parallel loadgen: level %d: %d queries failed\n", lv.Level, lv.Errors)
			os.Exit(1)
		}
	}
}
