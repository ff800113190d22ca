package repro_test

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/rdb"
	"repro/internal/sweep"
	"repro/internal/table"
)

// TestDocCitations keeps the prose honest about the second instrument:
// every BENCH_<id>.json, `fembench -exp <id>` and `fembench -<flag>` that
// README, the architecture document or the CI workflow mentions must still
// exist — as a registry entry, a committed file, or a flag cmd/fembench
// defines.
func TestDocCitations(t *testing.T) {
	src, err := os.ReadFile("cmd/fembench/main.go")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, m := range regexp.MustCompile(`flag\.\w+\("([a-z]+)"`).FindAllStringSubmatch(string(src), -1) {
		flags[m[1]] = true
	}
	if !flags["exp"] || !flags["json"] {
		t.Fatalf("flag set not recognised in cmd/fembench/main.go: %v", flags)
	}
	known := func(id string) bool {
		_, ok := bench.Lookup(id)
		return ok
	}

	benchFile := regexp.MustCompile(`BENCH_([A-Za-z0-9-]+)\.json`)
	expIDs := regexp.MustCompile(`fembench\b.*?\s-exp\s+([a-z0-9,-]+)`)
	flagUse := regexp.MustCompile(`\s-([a-z][a-z-]*)`)
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md", ".github/workflows/ci.yml"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			for _, m := range benchFile.FindAllStringSubmatch(line, -1) {
				if _, err := os.Stat(m[0]); err != nil && !known(m[1]) {
					t.Errorf("%s:%d: %s is neither committed nor written by any experiment", doc, n+1, m[0])
				}
			}
			at := strings.Index(line, "fembench")
			if at < 0 {
				continue
			}
			if m := expIDs.FindStringSubmatch(line); m != nil {
				for _, id := range strings.Split(m[1], ",") {
					if id != "all" && !known(id) {
						t.Errorf("%s:%d: fembench -exp %s: no such experiment", doc, n+1, id)
					}
				}
			}
			for _, m := range flagUse.FindAllStringSubmatch(line[at:], -1) {
				if !flags[m[1]] {
					t.Errorf("%s:%d: fembench -%s: no such flag", doc, n+1, m[1])
				}
			}
		}
	}
}

// relationRows renders the relation table of ARCHITECTURE §Physical design
// from the declaration: one row per relation of sweep.Relations, its
// storage under each strategy read back from a catalog the declared DDL
// ran against.
func relationRows(t *testing.T) []string {
	store := func(rel sweep.Relation, s sweep.IndexStrategy) string {
		db, err := rdb.Open(rdb.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		schema := sweep.Schema{Catalog: db.Catalog(), Strategy: s, Exec: func(q string) error {
			_, err := db.Exec(q)
			return err
		}}
		rel.BelowMerge = false
		if err := schema.Create(rel); err != nil {
			t.Fatal(err)
		}
		tbl, _ := db.Catalog().Get(rel.Name)
		on := func(ix *table.Index) string {
			cols := make([]string, len(ix.Cols))
			for i, c := range ix.Cols {
				cols[i] = tbl.Schema.Columns[c].Name
			}
			if ix.Unique {
				return "unique (" + strings.Join(cols, ", ") + ")"
			}
			return "(" + strings.Join(cols, ", ") + ")"
		}
		out := "heap"
		if clu := tbl.Clustered(); clu != nil {
			out = "B+tree on " + on(clu)
		}
		for _, ix := range tbl.Secondary {
			out += ", index " + on(ix)
		}
		return out
	}
	var rows []string
	for _, rel := range sweep.Relations {
		key, snap := "—", "no"
		if rel.Key != "" {
			key = rel.Key
		}
		if rel.Snapshot {
			snap = "yes"
		}
		owner := rel.Owner.String()
		if rel.BelowMerge {
			owner += ", below the MERGE level"
		}
		rows = append(rows, fmt.Sprintf("| `%s` | %s | %s | %s | %s | %s | %s | %s |", rel.Name, rel.Cols, key,
			store(rel, sweep.ClusteredIndex), store(rel, sweep.SecondaryIndex), store(rel, sweep.NoIndex), owner, snap))
	}
	return rows
}

// TestDocRelations: every declared relation has its row in the relation
// table of ARCHITECTURE §Physical design, as the declaration renders it
// today. On a missing or stale row the whole table is printed to paste.
func TestDocRelations(t *testing.T) {
	text, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := relationRows(t)
	for _, row := range rows {
		if !strings.Contains(string(text), row+"\n") {
			t.Fatalf("docs/ARCHITECTURE.md lacks the row\n%s\nthe table the declaration renders:\n%s", row, strings.Join(rows, "\n"))
		}
	}
}
