// Package bench regenerates every table and figure of the paper's
// evaluation (§5). Each experiment id (Table2, Fig6a, ... Fig9h) has a
// runner returning a formatted Table whose rows mirror the paper's plots:
// same series, same x-axes, scaled-down sizes.
package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rdb"
)

// Config controls workload sizes shared by all runners.
type Config struct {
	// Queries per data point (the paper uses 100; default 5 keeps the full
	// harness in CI budgets).
	Queries int
	// Seed drives all generators and workloads.
	Seed int64
	// Scale multiplies the default (already scaled-down) node counts.
	Scale float64
	// Verbose receives progress lines (nil = quiet).
	Verbose io.Writer
	// DataDir holds file-backed databases for the buffer experiments
	// (default: os.TempDir()).
	DataDir string
}

// DefaultConfig returns the harness defaults.
func DefaultConfig() Config {
	return Config{Queries: 5, Seed: 42, Scale: 1.0}
}

func (c Config) queries() int {
	if c.Queries <= 0 {
		return 5
	}
	return c.Queries
}

func (c Config) scale(base int64) int64 {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	n := int64(float64(base) * s)
	if n < 64 {
		n = 64
	}
	return n
}

func (c Config) logf(format string, args ...any) {
	if c.Verbose != nil {
		fmt.Fprintf(c.Verbose, format+"\n", args...)
	}
}

func (c Config) dataDir() string {
	if c.DataDir != "" {
		return c.DataDir
	}
	return os.TempDir()
}

// Table is one regenerated result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

// Fprint writes the formatted table.
func (t *Table) Fprint(w io.Writer) { fmt.Fprint(w, t.Format()) }

// engineSetup bundles one loaded engine and its teardown.
type engineSetup struct {
	eng   *core.Engine
	db    *rdb.DB
	close func()
}

// makeEngine opens a database and loads g under the given configuration.
func makeEngine(g *graph.Graph, dbo rdb.Options, opts core.Options) (*engineSetup, error) {
	db, err := rdb.Open(dbo)
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(db, opts)
	if err := eng.LoadGraph(g); err != nil {
		db.Close()
		return nil, err
	}
	cleanup := func() {
		db.Close()
		if dbo.Path != "" {
			os.Remove(dbo.Path)
		}
	}
	return &engineSetup{eng: eng, db: db, close: cleanup}, nil
}

// fileDBPath returns a fresh path for a file-backed database.
func (c Config) fileDBPath(tag string) string {
	return filepath.Join(c.dataDir(), fmt.Sprintf("fem_%s_%d.db", tag, time.Now().UnixNano()))
}

// agg averages per-query metrics over a workload.
type agg struct {
	N       int
	Time    time.Duration // mean per query
	Exps    float64
	Visited float64
	Stmts   float64
	// Affected is the mean of the per-query affected-tuple totals (the
	// SQLCA sums); Pruned the mean of ALT's settled-without-expansion
	// counts.
	Affected float64
	Pruned   float64
	PE       time.Duration
	SC       time.Duration
	FPR      time.Duration
	FOp      time.Duration
	EOp      time.Duration
	MOp      time.Duration
	Found    int
	// Decisions tallies the planner's choices on AlgAuto workloads.
	Decisions map[string]int
}

// runQueries executes the workload through the unified Query API,
// averaging the stats. With core.AlgAuto the planner decides per query;
// decisions land in agg.Decisions.
func runQueries(e *core.Engine, alg core.Algorithm, queries [][2]int64) (agg, error) {
	var a agg
	var totT, pe, sc, fpr, fo, eo, mo time.Duration
	for _, q := range queries {
		res, err := e.Query(context.Background(), core.QueryRequest{Source: q[0], Target: q[1], Alg: alg})
		if err != nil {
			return a, fmt.Errorf("%v s=%d t=%d: %w", alg, q[0], q[1], err)
		}
		qs := res.Stats
		if res.Found {
			a.Found++
		}
		if alg == core.AlgAuto && qs.Planner != "" {
			if a.Decisions == nil {
				a.Decisions = map[string]int{}
			}
			a.Decisions[qs.Planner]++
		}
		totT += qs.Total
		pe += qs.PE
		sc += qs.SC
		fpr += qs.FPR
		fo += qs.FOp
		eo += qs.EOp
		mo += qs.MOp
		a.Exps += float64(qs.Expansions)
		a.Visited += float64(qs.VisitedRows)
		a.Stmts += float64(qs.Statements)
		a.Affected += float64(qs.TuplesAffected)
		a.Pruned += float64(qs.PrunedRows)
	}
	n := len(queries)
	if n == 0 {
		return a, fmt.Errorf("empty workload")
	}
	a.N = n
	a.Time = totT / time.Duration(n)
	a.PE = pe / time.Duration(n)
	a.SC = sc / time.Duration(n)
	a.FPR = fpr / time.Duration(n)
	a.FOp = fo / time.Duration(n)
	a.EOp = eo / time.Duration(n)
	a.MOp = mo / time.Duration(n)
	a.Exps /= float64(n)
	a.Visited /= float64(n)
	a.Stmts /= float64(n)
	a.Affected /= float64(n)
	a.Pruned /= float64(n)
	return a, nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// Runner is one experiment entry point.
type Runner func(Config) (*Table, error)

// Experiments maps experiment ids to runners, in the paper's order.
func Experiments() []struct {
	ID  string
	Fn  Runner
	Doc string
} {
	return []struct {
		ID  string
		Fn  Runner
		Doc string
	}{
		{"table2", RunTable2, "Table 2: expansions & time for DJ/BDJ/BSDJ on Power graphs"},
		{"fig6a", RunFig6a, "Fig 6(a): query time vs graph scale, BDJ vs BSDJ"},
		{"fig6b", RunFig6b, "Fig 6(b): query time by phase (PE/SC/FPR)"},
		{"fig6c", RunFig6c, "Fig 6(c): query time by operator (F/E/M)"},
		{"fig6d", RunFig6d, "Fig 6(d): NSQL vs TSQL query time"},
		{"fig7a", RunFig7a, "Fig 7(a): BSDJ/BBFS/BSEG(3) on LiveJournal-like graphs"},
		{"fig7b", RunFig7b, "Fig 7(b): BBFS/BSDJ/BSEG(3,5,7) on Random graphs"},
		{"table3", RunTable3, "Table 3: time/expansions/visited on Random graphs"},
		{"fig7c", RunFig7c, "Fig 7(c): BSEG query time vs lthd on Power graphs"},
		{"fig7d", RunFig7d, "Fig 7(d): BSEG query time vs lthd on real-like graphs"},
		{"fig8a", RunFig8a, "Fig 8(a): BBFS vs BSEG on the PostgreSQL profile"},
		{"fig8b", RunFig8b, "Fig 8(b): query time vs buffer size"},
		{"fig8c", RunFig8c, "Fig 8(c): index strategies (NoIndex/Index/CluIndex)"},
		{"fig8d", RunFig8d, "Fig 8(d): BSEG vs in-memory MDJ/MBDJ"},
		{"fig9a", RunFig9a, "Fig 9(a): SegTable size vs lthd (Power)"},
		{"fig9b", RunFig9b, "Fig 9(b): SegTable size vs lthd (real-like)"},
		{"fig9c", RunFig9c, "Fig 9(c): construction time vs lthd (Power)"},
		{"fig9d", RunFig9d, "Fig 9(d): construction time vs lthd (real-like)"},
		{"fig9e", RunFig9e, "Fig 9(e): construction time on the PostgreSQL profile"},
		{"fig9f", RunFig9f, "Fig 9(f): construction NSQL vs TSQL"},
		{"fig9g", RunFig9g, "Fig 9(g): construction time vs buffer size"},
		{"fig9h", RunFig9h, "Fig 9(h): construction time vs graph scale"},
		{"ablation-pruning", RunAblationPruning, "Ablation: Theorem-1 pruning on/off"},
		{"ablation-direction", RunAblationDirection, "Ablation: direction policy (fewer-frontier vs alternation)"},
		{"oracle-build", RunOracleBuild, "Oracle: landmark oracle construction vs k and strategy"},
		{"oracle-alt", RunOracleALT, "Oracle: ALT vs BSDJ tuples affected / statements / time"},
		{"oracle-approx", RunOracleApprox, "Oracle: approximate-answer quality and latency"},
		{"labels", RunLabels, "Hub labels: 2-hop index query latency vs ALT and BSDJ"},
		{"mutation-throughput", RunMutationThroughput, "Mutations: insert/delete/update repair + batch throughput"},
		{"planner", RunPlanner, "Planner: AlgAuto vs hand-picked algorithm latency + decision mix"},
		{"prepared", RunPrepared, "Prepared statements: plan-cache execution vs statement-at-a-time re-parse"},
		{"recovery", RunRecovery, "Durability: cold CSV re-ingest + rebuild vs snapshot hydrate + WAL replay"},
		{"shard", RunShard, "Sharding: partition-parallel FEM cold QPS vs single engine"},
	}
}

// Lookup returns the runner for an experiment id.
func Lookup(id string) (Runner, bool) {
	for _, e := range Experiments() {
		if strings.EqualFold(e.ID, id) {
			return e.Fn, true
		}
	}
	return nil, false
}
