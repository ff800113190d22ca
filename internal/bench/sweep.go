package bench

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rdb"
)

// Metric names one quantity of a measurement. Counters are deterministic
// for a fixed dataset, pair list and column — TestPaperClaims asserts on
// them and on nothing else; timers are wall-clock.
type Metric int

const (
	// Query-phase counters, summed over the pairs.
	Iterations Metric = iota // main-loop rounds
	Expansions               // E-operator executions
	Statements               // SQL statements issued
	Visited                  // |TVisited| when the search stops
	Affected                 // tuples affected by the write statements
	Fetches                  // buffer-pool page fetches, hits + misses
	Misses                   // buffer-pool misses
	Reads                    // physical page reads
	// Query-phase timers, summed over the pairs. MDJ and MBDJ time the
	// in-memory references the answers are checked against.
	Time
	PE
	SC
	FPR
	FOp
	EOp
	MOp
	MDJ
	MBDJ
	// The SegTable build of a column with Lthd > 0.
	SegRows // encoding number: rows of TOutSegs + TInSegs
	BuildIterations
	BuildStatements
	BuildMisses
	BuildTime
	numMetrics
)

// perQuery reports whether cells print x as a mean over the pairs.
func (x Metric) perQuery() bool { return x < SegRows }

// Counter reports whether x is a deterministic count, not a duration.
func (x Metric) Counter() bool { return x < Time || (x >= SegRows && x < BuildTime) }

// measurement is what one (dataset, column) pair yields.
type measurement struct {
	Pairs int
	V     [numMetrics]int64 // durations in nanoseconds
}

// cell formats x the way the figures print it: counters as a mean with one
// decimal (query phase) or an integer (build), durations in milliseconds.
func (m *measurement) cell(x Metric) string {
	v := m.V[x]
	switch {
	case x.Counter() && x.perQuery():
		return fmt.Sprintf("%.1f", float64(v)/float64(m.Pairs))
	case x.Counter():
		return fmt.Sprint(v)
	case x.perQuery():
		return ms(time.Duration(v / int64(m.Pairs)))
	}
	return ms(time.Duration(v))
}

// Column is one configuration a figure measures: the database and engine
// options, the SegTable threshold built before the queries (0: none) and
// the algorithm the pairs run under. Alg 0 is AlgAuto — the planner's
// choice is not a configuration the paper measures — and runs no queries:
// the column measures its build alone.
type Column struct {
	Name string
	// DB.Path, when set, is a tag: the database is file-backed, at a fresh
	// path under Config.DataDir that the measurement removes.
	DB   rdb.Options
	Core core.Options
	Lthd int64
	Alg  core.Algorithm
	// Slow marks node-at-a-time DJ, which the paper reports as ">600s"
	// beyond its smallest sizes: the column runs on the first slowRows
	// datasets only, and those rows take at most slowPairs pairs — for
	// every column, so cells of one row stay comparable.
	Slow bool
}

const (
	slowRows  = 2
	slowPairs = 2
)

// Cell is one printed quantity of a measurement.
type Cell struct {
	Name string
	Of   Metric
}

// Dataset generates one graph of a figure's x-axis.
type Dataset struct {
	// Name prefixes the row label of the real-graph analogs; the synthetic
	// families are labelled by node count alone.
	Name string
	Gen  func(Config) *graph.Graph
}

func (d Dataset) label(g *graph.Graph) string {
	if d.Name == "" {
		return fmt.Sprint(g.N)
	}
	return fmt.Sprintf("%s(|V|=%d)", d.Name, g.N)
}

// Figure is one artefact of the paper's evaluation: a line per dataset, a
// group of cells per column.
type Figure struct {
	ID      string // fembench -exp <ID>, BENCH_<ID>.json
	Name    string // as the paper numbers it
	Section string // where the paper discusses it
	Title   string
	RowHead string
	Data    []Dataset
	Columns []Column
	Cells   []Cell
	// PerColumn prints a line per column over the single dataset (the
	// buffer-size figures, whose x-axis is a database option).
	PerColumn bool
}

// Header is the printed table's header row.
func (f Figure) Header() []string {
	h := []string{f.RowHead}
	cols := f.Columns
	if f.PerColumn {
		cols = []Column{{}} // the columns head the lines; cells head themselves
	}
	for _, col := range cols {
		for _, c := range f.Cells {
			h = append(h, strings.TrimSpace(col.Name+" "+c.Name))
		}
	}
	return h
}

// Run sweeps the figure: one measurement per (dataset, column), the pair
// list drawn once per dataset and shared by its columns.
func Run(f Figure, cfg Config) (*Table, error) {
	t := &Table{ID: f.ID, Title: f.Title, Header: f.Header()}
	for i, d := range f.Data {
		g := d.Gen(cfg)
		cfg.logf("%s: |V|=%d", f.ID, g.N)
		n := cfg.queries()
		for _, col := range f.Columns {
			if col.Slow && i < slowRows {
				n = min(n, slowPairs)
			}
		}
		w, err := newWorkload(g, graph.RandomQueries(g, n, cfg.Seed+int64(i)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f.ID, err)
		}
		row := []string{d.label(g)}
		for _, col := range f.Columns {
			cells := make([]string, len(f.Cells))
			if col.Slow && i >= slowRows {
				for k := range cells {
					cells[k] = ">" // beyond the DJ time budget, as in the paper
				}
			} else {
				m, err := w.measure(cfg, col)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", f.ID, err)
				}
				for k, c := range f.Cells {
					cells[k] = m.cell(c.Of)
				}
			}
			if f.PerColumn {
				t.Rows = append(t.Rows, append([]string{col.Name}, cells...))
			} else {
				row = append(row, cells...)
			}
		}
		if !f.PerColumn {
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// workload is a graph, a pair list and the reference answers every
// measurement over them is checked against.
type workload struct {
	g     *graph.Graph
	pairs [][2]int64
	want  []graph.PathResult
	// mdj and mbdj are the references' own running times, the in-memory
	// baselines of Fig 8(d).
	mdj, mbdj time.Duration
}

// newWorkload answers the pairs with both in-memory references, which must
// agree with each other.
func newWorkload(g *graph.Graph, pairs [][2]int64) (*workload, error) {
	w := &workload{g: g, pairs: pairs, want: make([]graph.PathResult, len(pairs))}
	for i, q := range pairs {
		t0 := time.Now()
		w.want[i] = graph.MDJ(g, q[0], q[1])
		t1 := time.Now()
		bi := graph.MBDJ(g, q[0], q[1])
		w.mdj += t1.Sub(t0)
		w.mbdj += time.Since(t1)
		if !agrees(bi.Found, bi.Distance, w.want[i]) {
			return nil, fmt.Errorf("s=%d t=%d: MBDJ says found=%v distance %d, MDJ found=%v distance %d",
				q[0], q[1], bi.Found, bi.Distance, w.want[i].Found, w.want[i].Distance)
		}
	}
	return w, nil
}

// agrees compares an answer with the reference's: the same verdict, and the
// same distance when there is a path.
func agrees(found bool, dist int64, want graph.PathResult) bool {
	return found == want.Found && (!found || dist == want.Distance)
}

// measure loads the graph into a fresh engine under col, builds col's
// SegTable, runs the pairs and returns the counters and timers of both
// phases. A distance that differs from the reference's is an error: a
// measurement of wrong answers is not a measurement.
func (w *workload) measure(cfg Config, col Column) (*measurement, error) {
	dbo := col.DB
	if dbo.Path != "" {
		dbo.Path = cfg.fileDBPath(dbo.Path)
		defer os.Remove(dbo.Path)
	}
	db, err := rdb.Open(dbo)
	if err != nil {
		return nil, err
	}
	opts := col.Core
	// The path cache is off: a repeated pair must be a search again, or
	// its counters would read zero.
	opts.CacheSize = -1
	eng := core.NewEngine(db, opts)
	defer eng.Close()
	if err := eng.LoadGraph(w.g); err != nil {
		return nil, err
	}
	m := &measurement{Pairs: len(w.pairs)}
	if col.Lthd > 0 {
		misses := db.Stats().Pool.Misses
		st, err := eng.BuildSegTable(col.Lthd)
		if err != nil {
			return nil, err
		}
		m.V[SegRows] = int64(st.EncodingNumber())
		m.V[BuildIterations] = int64(st.Iterations)
		m.V[BuildStatements] = int64(st.Statements)
		m.V[BuildMisses] = int64(db.Stats().Pool.Misses - misses)
		m.V[BuildTime] = int64(st.BuildTime)
	}
	if col.Alg == core.AlgAuto {
		return m, nil
	}
	before := db.Stats()
	for i, q := range w.pairs {
		res, err := eng.Query(context.Background(), core.QueryRequest{Source: q[0], Target: q[1], Alg: col.Alg})
		if err != nil {
			return nil, fmt.Errorf("%v s=%d t=%d: %w", col.Alg, q[0], q[1], err)
		}
		if want := w.want[i]; !agrees(res.Found, res.Distance, want) {
			return nil, fmt.Errorf("%v s=%d t=%d: found=%v distance %d, in-memory Dijkstra says found=%v distance %d",
				col.Alg, q[0], q[1], res.Found, res.Distance, want.Found, want.Distance)
		}
		qs := res.Stats
		m.V[Iterations] += int64(qs.Iterations)
		m.V[Expansions] += int64(qs.Expansions)
		m.V[Statements] += int64(qs.Statements)
		m.V[Visited] += int64(qs.VisitedRows)
		m.V[Affected] += qs.TuplesAffected
		m.V[Time] += int64(qs.Total)
		m.V[PE] += int64(qs.PE)
		m.V[SC] += int64(qs.SC)
		m.V[FPR] += int64(qs.FPR)
		m.V[FOp] += int64(qs.FOp)
		m.V[EOp] += int64(qs.EOp)
		m.V[MOp] += int64(qs.MOp)
	}
	after := db.Stats()
	m.V[Fetches] = int64(after.Pool.Hits + after.Pool.Misses - before.Pool.Hits - before.Pool.Misses)
	m.V[Misses] = int64(after.Pool.Misses - before.Pool.Misses)
	m.V[Reads] = int64(after.IO.Reads - before.IO.Reads)
	m.V[MDJ], m.V[MBDJ] = int64(w.mdj), int64(w.mbdj)
	return m, nil
}
