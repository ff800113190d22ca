package bench

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// tinyConfig keeps runner tests fast.
func tinyConfig() Config {
	return Config{Queries: 2, Seed: 7, Scale: 0.05}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != len(Figures)+2 {
		t.Fatalf("expected the %d figures plus parallel and shard, got %d", len(Figures), len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.Run == nil || e.Doc == "" {
			t.Errorf("%s: incomplete entry", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if _, ok := Lookup(e.ID); !ok {
			t.Errorf("Lookup(%s) failed", e.ID)
		}
		if _, ok := Lookup(strings.ToUpper(e.ID)); !ok {
			t.Errorf("Lookup(%s) should be case-insensitive", e.ID)
		}
	}
	if _, ok := Lookup("does-not-exist"); ok {
		t.Error("Lookup of unknown id should fail")
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "longcolumn"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tab.Format()
	if !strings.Contains(out, "== X: demo ==") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "longcolumn") {
		t.Errorf("missing header: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Errorf("expected 5 lines, got %d: %q", len(lines), out)
	}
}

// TestFigures regenerates every row of the spec table at a tiny scale and
// checks the table against the spec it came from: a line per dataset (per
// column for the buffer-size figures), a cell per (column, cell), none
// empty, counters numeric.
func TestFigures(t *testing.T) {
	for _, f := range Figures {
		t.Run(f.ID, func(t *testing.T) {
			if f.Name == "" || f.Section == "" || f.Title == "" {
				t.Errorf("incomplete spec: %+v", f)
			}
			tab, err := Run(f, tinyConfig())
			if err != nil {
				t.Fatal(err)
			}
			lines, width := len(f.Data), 1+len(f.Columns)*len(f.Cells)
			if f.PerColumn {
				lines, width = len(f.Columns), 1+len(f.Cells)
			}
			if len(tab.Header) != width || len(tab.Rows) != lines {
				t.Fatalf("%d columns x %d rows, spec says %d x %d", len(tab.Header), len(tab.Rows), width, lines)
			}
			for _, r := range tab.Rows {
				if len(r) != width {
					t.Fatalf("row arity %d != %d: %v", len(r), width, r)
				}
				for k, cell := range r {
					if cell == "" {
						t.Errorf("empty cell %d in %v", k, r)
					}
					if k == 0 || cell == ">" || !f.Cells[(k-1)%len(f.Cells)].Of.Counter() {
						continue
					}
					if _, err := strconv.ParseFloat(cell, 64); err != nil {
						t.Errorf("counter cell %q of %v is not a number", cell, r)
					}
				}
			}
		})
	}
	t.Run("shard", func(t *testing.T) {
		// The graph's minimum size: every page miss sleeps 15 ms.
		tab, err := RunShard(Config{Queries: 2, Seed: 7, Scale: 0.005})
		if err != nil {
			t.Fatal(err)
		}
		// Single engine and 1, 2, 4 shards, for BSDJ and BSEG.
		if len(tab.Rows) != 8 {
			t.Fatalf("expected 8 rows, got %d", len(tab.Rows))
		}
		for _, r := range tab.Rows {
			if len(r) != len(tab.Header) {
				t.Fatalf("row arity %d != %d: %v", len(r), len(tab.Header), r)
			}
		}
	})
}

// TestJSONWriters round-trips the machine-readable output.
func TestJSONWriters(t *testing.T) {
	dir := t.TempDir()
	tab := &Table{ID: "X", Title: "demo", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	path, err := tab.WriteJSON(dir, tinyConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "BENCH_X.json") {
		t.Fatalf("unexpected path %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res JSONResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != "X" || len(res.Rows) != 1 || res.Config["queries"] == nil {
		t.Fatalf("bad JSON round-trip: %+v", res)
	}
}
