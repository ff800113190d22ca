package core

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/fem"
	"repro/internal/rdb"
)

// TestGoldenStatementTexts pins the E- and M-operator texts the default
// level (MERGE + window functions) issues to the bytes the hand-written
// renderings produced before internal/fem replaced them (captured from
// buildExpand, maintFwdShapes / maintBwdShapes, foldEdges and mstMergeQ at
// PR 16): the fused and the separate-operator search statements, forward
// and backward, over TEdges and the SegTable, pruning and not, plus DJ's
// one-node frontier; maintenance shapes 1-3; Prim's round; and the
// original-edge fold. Shape 4 is not here — it lost its no-op ROW_NUMBER
// dedupe — nor reachability, whose source column d became cost. A plan
// cache keyed by text, and the benchmark's statement counts, see no change.
// The decremental repair's own texts (touch/, repair/, fold/*/touched) are
// pinned as what a delete leaves prepared: their FROM order is their plan.
func TestGoldenStatementTexts(t *testing.T) {
	golden := map[string]string{}
	f, err := os.Open("testdata/golden_statements.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, text, _ := strings.Cut(sc.Text(), "\t")
		golden[name] = text
	}
	check := func(name, got string) {
		t.Helper()
		want, ok := golden[name]
		if !ok {
			t.Fatalf("%s: no golden text", name)
		}
		if got != want {
			t.Errorf("%s:\n got  %s\n want %s", name, got, want)
		}
		delete(golden, name)
	}
	checkOps := func(prefix string, ops fem.Ops) {
		t.Helper()
		check(prefix+"fused", ops.Round(false)[0].Text)
		sep := ops.Round(true)
		if len(sep) != 3 {
			t.Fatalf("%s: %d separate-operator statements, want 3", prefix, len(sep))
		}
		check(prefix+"clear", sep[0].Text)
		check(prefix+"stage", sep[1].Text)
		check(prefix+"merge", sep[2].Text)
	}

	g := lineGraph(t, 8, 3)
	e := newTestEngine(t, g, rdb.Options{}, Options{})
	sc := e.scratchGlobal
	for _, d := range []direction{fwdDir(), bwdDir()} {
		dn, front, seg := "fwd", "q.f = 2", TblOutSegs
		if !d.forward {
			dn, front, seg = "bwd", "q.b = 2", TblInSegs
		}
		for _, edges := range []string{TblEdges, seg} {
			for _, prune := range []bool{false, true} {
				checkOps(fmt.Sprintf("search/%s/%s/prune=%v/", dn, edges, prune), e.searchOps(sc, d, edges, front, prune))
			}
		}
	}
	checkOps("dj/", e.searchOps(sc, fwdDir(), TblEdges, "q.nid = ?", false))
	for i := 0; i < 3; i++ {
		check(fmt.Sprintf("maint/fwd/%d", i+1),
			fem.MergeSelect(e.level, maintFwdShapes[i].src, segMerge(TblOutSegs)).Round(false)[0].Text)
		check(fmt.Sprintf("maint/bwd/%d", i+1),
			fem.MergeSelect(e.level, maintBwdShapes[i].src, segMerge(TblInSegs)).Round(false)[0].Text)
	}
	check("mst", e.mstRound()[0].Text)

	// The fold renders its source per call: a build folds every edge, a
	// delete's repair the touched pairs, and both leave their texts behind
	// as prepared statements.
	if _, err := e.BuildSegTable(7); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeleteEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	for name, want := range golden {
		if kind, _, _ := strings.Cut(name, "/"); kind != "fold" && kind != "touch" && kind != "repair" {
			t.Errorf("%s: golden text never checked", name)
		} else if _, ok := e.stmtCache[want]; !ok {
			t.Errorf("%s: the engine never prepared %s", name, want)
		}
	}
}
