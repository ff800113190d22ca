package core

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fem"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
	"repro/internal/sweep"
	"repro/internal/table"
)

// describeCatalog renders every table of e's catalog as the catalog itself
// reports it — columns, clustered key, secondary indexes — one line per
// table, sorted by name.
func describeCatalog(e *Engine) []string {
	cat := e.DB().Catalog()
	var out []string
	for _, name := range catalogNames(e) {
		tbl, _ := cat.Get(name)
		cols := func(ords []int) string {
			names := make([]string, len(ords))
			for i, o := range ords {
				names[i] = tbl.Schema.Columns[o].Name
			}
			return "(" + strings.Join(names, ", ") + ")"
		}
		index := func(ix *table.Index) string {
			u := ""
			if ix.Unique {
				u = " unique"
			}
			return cols(ix.Cols) + u
		}
		all := make([]int, len(tbl.Schema.Columns))
		for i := range all {
			all[i] = i
		}
		line := tbl.Name + " " + cols(all)
		if clu := tbl.Clustered(); clu != nil {
			line += " clustered " + index(clu)
		} else {
			line += " heap"
		}
		for _, ix := range tbl.Secondary {
			line += " index " + ix.Name + " " + index(ix)
		}
		out = append(out, line)
	}
	return out
}

// TestGoldenSchema pins the physical design and the bytes it costs. Under
// each strategy it loads one fixed graph, builds the SegTable, a
// farthest-point oracle and the labels, and compares the database's
// allocated page count — on the default profile and below the MERGE level —
// with testdata/golden_schema.txt; then, below the MERGE level and after an
// insertion and a deletion, where every relation the engine ever creates
// exists, what db.Catalog() reports of each one. The file was generated at
// PR 21, before the relations were declared in one place
// (UPDATE_GOLDEN_SCHEMA=1 rewrites it).
func TestGoldenSchema(t *testing.T) {
	g := graph.Power(300, 3, 7)
	var got []string
	for _, strategy := range []IndexStrategy{ClusteredIndex, SecondaryIndex, NoIndex} {
		got = append(got, "== "+strategy.String())
		for _, profile := range []rdb.Profile{rdb.ProfileDBMSX, rdb.ProfilePostgreSQL9} {
			e := newTestEngine(t, g, rdb.Options{Profile: profile}, Options{Strategy: strategy})
			if _, err := e.BuildSegTable(8); err != nil {
				t.Fatal(err)
			}
			if _, err := e.BuildOracle(oracle.Config{K: 3, Strategy: oracle.Farthest}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.BuildLabels(); err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("pages %s %d", profile.Name, e.DB().Pool().Disk().NumPages()))
			if profile.SupportsMerge {
				continue
			}
			if _, err := e.InsertEdge(5, 200, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := e.DeleteEdge(5, 200); err != nil {
				t.Fatal(err)
			}
			got = append(got, describeCatalog(e)...)
		}
	}
	const path = "testdata/golden_schema.txt"
	if os.Getenv("UPDATE_GOLDEN_SCHEMA") != "" {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("%d lines, golden has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}

// TestEveryRelationDeclared: whatever the engine does, at every SQL level,
// each table it leaves in the catalog is a declared relation or a pooled
// _q<i> instance of a scratch one — so dropping the declaration, as a
// reload and a hydration do, leaves nothing but the pool behind.
func TestEveryRelationDeclared(t *testing.T) {
	declared := map[string]sweep.Owner{}
	for _, rel := range sweep.Relations {
		declared[strings.ToLower(rel.Name)] = rel.Owner
	}
	g := graph.Power(120, 3, 5)
	for _, level := range []struct {
		name    string
		profile rdb.Profile
		opts    Options
	}{
		{"merge+window", rdb.ProfileDBMSX, Options{}},
		{"window", rdb.ProfilePostgreSQL9, Options{}},
		{"plain", rdb.ProfileDBMSX, Options{TraditionalSQL: true}},
	} {
		t.Run(level.name, func(t *testing.T) {
			e := newTestEngine(t, g, rdb.Options{Profile: level.profile}, level.opts)
			if _, err := e.BuildSegTable(6); err != nil {
				t.Fatal(err)
			}
			if _, err := e.BuildOracle(oracle.Config{K: 2, Strategy: oracle.Farthest}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.BuildLabels(); err != nil {
				t.Fatal(err)
			}
			if _, err := e.InsertEdge(5, 100, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := e.UpdateEdgeWeight(5, 100, 9); err != nil {
				t.Fatal(err)
			}
			if _, err := e.DeleteEdge(5, 100); err != nil {
				t.Fatal(err)
			}
			if _, err := e.MinimumSpanningForest(); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Reachable(3, 90); err != nil {
				t.Fatal(err)
			}
			if _, _, err := shortestPath(e, AlgBSDJ, 3, 90); err != nil { // leases, then pools, set _q0
				t.Fatal(err)
			}
			want := 3 // the pooled set
			for _, rel := range sweep.Relations {
				if !rel.BelowMerge || e.level != fem.MergeWindow {
					want++
				}
			}
			names := catalogNames(e)
			if len(names) != want {
				t.Errorf("%d tables in the catalog, want the %d of this level and the pooled set: %v", len(names), want-3, names)
			}
			for _, name := range names {
				owner, ok := declared[name]
				if base, pooled := strings.CutSuffix(name, "_q0"); pooled {
					owner, ok = declared[base]
					ok = ok && owner == sweep.Scratch
				}
				if !ok {
					t.Errorf("table %s is not a declared relation", name)
				}
			}
			if err := e.schema(nil).Drop(sweep.Relations...); err != nil {
				t.Fatal(err)
			}
			pool := []string{"texpand_q0", "texpcost_q0", "tvisited_q0"}
			if got := catalogNames(e); !reflect.DeepEqual(got, pool) {
				t.Errorf("after dropping the declaration: catalog %v, want %v", got, pool)
			}
		})
	}
}
