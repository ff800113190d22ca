// Command spdb is the shortest path database shell: it loads or generates
// a graph into the embedded relational engine and answers shortest path
// queries with any of the paper's five algorithms, or runs raw SQL against
// the graph tables.
//
// Queries go through the engine's unified Query API: -alg auto (the
// default) engages the cost-based planner, -timeout bounds each query via
// context, and -maxerr lets the planner answer from the landmark oracle
// alone within the given relative error (requires -landmarks).
//
// Examples:
//
//	spdb -gen power:20000:3 -alg BSEG -lthd 20 -s 17 -t 4711
//	spdb -load graph.csv -alg BSDJ -random 10
//	spdb -gen power:50000:3 -landmarks 16 -maxerr 0.1 -random 20
//	spdb -gen random:5000:15000 -sql "SELECT COUNT(*) FROM TEdges"
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "spdb: "+format+"\n", args...)
	os.Exit(1)
}

func parseStrategy(s string) (core.IndexStrategy, error) {
	switch strings.ToLower(s) {
	case "clustered", "cluindex":
		return core.ClusteredIndex, nil
	case "index", "secondary":
		return core.SecondaryIndex, nil
	case "noindex", "none":
		return core.NoIndex, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (clustered|index|noindex)", s)
}

func main() {
	var (
		gen       = flag.String("gen", "", "generate a graph: power:N:D | random:N:M | dblp:PCT | web:PCT | lj:PERMILLE")
		load      = flag.String("load", "", "load a CSV graph (fid,tid,cost)")
		algName   = flag.String("alg", "auto", "algorithm: AUTO|DJ|BDJ|BSDJ|BBFS|BSEG|ALT (auto = cost-based planner)")
		s         = flag.Int64("s", -1, "source node")
		t         = flag.Int64("t", -1, "target node")
		random    = flag.Int("random", 0, "run N random queries instead of -s/-t")
		lthd      = flag.Int64("lthd", 0, "build SegTable with this threshold (required for BSEG)")
		lmk       = flag.Int("landmarks", 0, "build a landmark oracle with this many landmarks (required for ALT)")
		timeout   = flag.Duration("timeout", 0, "per-query deadline (0 = none)")
		maxErr    = flag.Float64("maxerr", 0, "acceptable relative error; lets the planner answer from the oracle alone")
		strategy  = flag.String("strategy", "clustered", "index strategy: clustered|index|noindex")
		profile   = flag.String("profile", "dbmsx", "engine profile: dbmsx|postgres|sql92 (sql92: traditional SQL, no window function / MERGE)")
		seed      = flag.Int64("seed", 42, "generator seed")
		sqlStmt   = flag.String("sql", "", "run one SQL statement against the loaded graph and exit")
		showStats = flag.Bool("stats", true, "print per-query statistics")
		showPath  = flag.Bool("path", true, "print the recovered path")
	)
	flag.Parse()

	var g *graph.Graph
	var err error
	switch {
	case *gen != "":
		g, err = graph.ParseGen(*gen, *seed)
	case *load != "":
		g, err = graph.LoadFile(*load)
	default:
		fail("need -gen or -load (try -gen power:10000:3)")
	}
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("graph: %d nodes, %d edges, wmin=%d\n", g.N, g.M(), g.WMin())

	prof := rdb.ProfileDBMSX
	switch p := strings.ToLower(*profile); {
	case strings.HasPrefix(p, "post"):
		prof = rdb.ProfilePostgreSQL9
	case p == "sql92":
		prof = rdb.ProfileSQL92
	}
	strat, err := parseStrategy(*strategy)
	if err != nil {
		fail("%v", err)
	}
	db, err := rdb.Open(rdb.Options{Profile: prof})
	if err != nil {
		fail("%v", err)
	}
	defer db.Close()
	eng := core.NewEngine(db, core.Options{Strategy: strat})
	if err := eng.LoadGraph(g); err != nil {
		fail("load: %v", err)
	}

	if *sqlStmt != "" {
		if err := runSQL(os.Stdout, db, *sqlStmt); err != nil {
			fail("%v", err)
		}
		return
	}

	alg, err := core.ParseAlgorithm(*algName)
	if err != nil {
		fail("%v", err)
	}
	if *lthd > 0 || alg == core.AlgBSEG {
		th := *lthd
		if th <= 0 {
			th = core.DefaultLthd
		}
		st, err := eng.BuildSegTable(th)
		if err != nil {
			fail("segtable: %v", err)
		}
		fmt.Printf("%s\n", st)
	}
	if *lmk > 0 || alg == core.AlgALT {
		k := *lmk
		if k <= 0 {
			k = oracle.DefaultK
		}
		st, err := eng.BuildOracle(oracle.Config{K: k})
		if err != nil {
			fail("oracle: %v", err)
		}
		fmt.Printf("%s\n", st)
	}

	runOne := func(s, t int64) {
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		res, err := eng.Query(ctx, core.QueryRequest{
			Source: s, Target: t, Alg: alg, MaxRelError: *maxErr,
		})
		if err != nil {
			fail("query: %v", err)
		}
		if !res.Found {
			fmt.Printf("%d -> %d: no path\n", s, t)
			return
		}
		if res.Approximate {
			fmt.Printf("%d -> %d: distance in [%d, %d] (approx, oracle only)\n",
				s, t, res.Lower, res.Upper)
			return
		}
		p := res.Path
		fmt.Printf("%d -> %d: distance %d (%d hops)\n", s, t, p.Length, len(p.Nodes)-1)
		if *showPath {
			fmt.Printf("  path: %v\n", p.Nodes)
		}
		if *showStats {
			if alg == core.AlgAuto {
				fmt.Printf("  planner: %s -> %s\n", res.Stats.Planner, res.Algorithm)
			}
			fmt.Printf("  %s\n", res.Stats)
		}
	}

	if *random > 0 {
		for _, q := range graph.RandomQueries(g, *random, *seed+1) {
			runOne(q[0], q[1])
		}
		return
	}
	if *s < 0 || *t < 0 {
		fail("need -s and -t (or -random N)")
	}
	runOne(*s, *t)
}

// runSQL runs one statement of the engine's dialect (docs/ARCHITECTURE.md
// §SQL dialect) and prints its result to w; anything outside the dialect
// comes back as the parser's positioned error.
func runSQL(w io.Writer, db *rdb.DB, stmt string) error {
	upper := strings.ToUpper(strings.TrimSpace(stmt))
	if strings.HasPrefix(upper, "SELECT") {
		rows, err := db.Query(stmt)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, strings.Join(rows.Columns, "\t"))
		for _, r := range rows.Data {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = v.String()
			}
			fmt.Fprintln(w, strings.Join(parts, "\t"))
		}
		fmt.Fprintf(w, "(%d rows)\n", rows.Len())
		return nil
	}
	res, err := db.Exec(stmt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ok (%d rows affected)\n", res.RowsAffected)
	return nil
}
