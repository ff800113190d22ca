// Package bench regenerates every table and figure of the paper's
// evaluation (§5). A figure is one row of the spec table in figures.go —
// datasets, columns, cells — and Run sweeps it: one measurement per
// (dataset, column), answers checked against the in-memory Dijkstra. The
// claims the paper draws from those figures are asserted on the same
// measurements' deterministic counters by TestPaperClaims. Two scaling
// sweeps under a simulated 15 ms seek (parallel.go, shard.go) complete the
// registry; everything else the system measures lives in benchmark/.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Config controls workload sizes shared by all experiments; the zero value
// runs the defaults.
type Config struct {
	// Queries per data point (the paper uses 100; default 5 keeps the full
	// harness in CI budgets).
	Queries int
	// Seed drives all generators and workloads.
	Seed int64
	// Scale multiplies the default (already scaled-down) node counts
	// (default 1).
	Scale float64
	// Verbose receives progress lines (nil = quiet).
	Verbose io.Writer
	// DataDir holds file-backed databases for the buffer experiments
	// (default: os.TempDir()).
	DataDir string
}

func (c Config) queries() int {
	if c.Queries <= 0 {
		return 5
	}
	return c.Queries
}

// factor is Scale with its default applied.
func (c Config) factor() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

func (c Config) scale(base int64) int64 {
	n := int64(float64(base) * c.factor())
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

// fileDBPath returns a fresh path for a file-backed database.
func (c Config) fileDBPath(tag string) string {
	dir := c.DataDir
	if dir == "" {
		dir = os.TempDir()
	}
	return filepath.Join(dir, fmt.Sprintf("fem_%s_%d.db", tag, time.Now().UnixNano()))
}

// Table is one regenerated result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// JSON, when set, is what WriteJSON serializes in place of the table
	// (the parallel sweep's per-level schema).
	JSON any
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

// JSONResult is the serialized form of one experiment run: the table
// verbatim plus the run configuration, so downstream tooling can diff runs
// without parsing the human tables.
type JSONResult struct {
	ID         string         `json:"id"`
	Title      string         `json:"title"`
	Header     []string       `json:"header"`
	Rows       [][]string     `json:"rows"`
	Config     map[string]any `json:"config,omitempty"`
	DurationMS int64          `json:"duration_ms"`
	// UnixTime stamps the run (seconds) for trajectory plots.
	UnixTime int64 `json:"unix_time"`
}

// WriteJSON writes the run as BENCH_<id>.json under dir (created if
// missing) and returns the file path.
func (t *Table) WriteJSON(dir string, cfg Config, dur time.Duration) (string, error) {
	v := t.JSON
	if v == nil {
		v = JSONResult{
			ID:     t.ID,
			Title:  t.Title,
			Header: t.Header,
			Rows:   t.Rows,
			Config: map[string]any{
				"queries": cfg.queries(),
				"scale":   cfg.Scale,
				"seed":    cfg.Seed,
			},
			DurationMS: dur.Milliseconds(),
			UnixTime:   time.Now().Unix(),
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", t.ID))
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

// Experiment is one registry entry: what `fembench -exp <ID>` runs.
type Experiment struct {
	ID  string
	Doc string
	Run func(Config) (*Table, error)
}

// Experiments lists the registry: the paper's figures in the paper's
// order, then the two scaling sweeps.
func Experiments() []Experiment {
	var out []Experiment
	for _, f := range Figures {
		out = append(out, Experiment{f.ID, f.Name + " (" + f.Section + "): " + f.Title, func(c Config) (*Table, error) { return Run(f, c) }})
	}
	return append(out,
		Experiment{"parallel", "Parallel cold-read scaling: QPS at GOMAXPROCS = workers = 1, 2, 4 under a 15 ms seek", RunParallel},
		Experiment{"shard", "Sharding: partition-parallel FEM cold QPS vs single engine", RunShard},
	)
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
