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
// PR 16; the search lines' frontier predicate became q.f = ? at PR 24, when
// the F-operators, ALT's prune and the statistics probes joined the file):
// the fused and the separate-operator search statements, forward
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
	// The search texts are read off the handle the loop runs on, so a change
	// to the frontier predicate or to what a round binds shows here: every
	// edge source and prune setting under BSDJ's rule, then each spec's own
	// F-operator, ALT's prune and the statistics probes.
	for _, seg := range []bool{false, true} {
		for _, prune := range []bool{false, true} {
			spec := specBSDJ(sc)
			spec.prune = prune
			if seg {
				spec.edgeFwd, spec.edgeBwd = TblOutSegs, TblInSegs
			}
			ss := e.newSuperstep(sc, spec, 0)
			checkOps(fmt.Sprintf("search/fwd/%s/prune=%v/", spec.edgeFwd, prune), ss.fwd.ops)
			checkOps(fmt.Sprintf("search/bwd/%s/prune=%v/", spec.edgeBwd, prune), ss.bwd.ops)
		}
	}
	var ss *superstep
	for _, spec := range []femSpec{specBDJ(sc), specBSDJ(sc), specBBFS(sc), specBSEG(sc, 7), specALT(sc, 0, 7)} {
		ss = e.newSuperstep(sc, spec, 0)
		check("frontier/"+spec.name+"/fwd", ss.fwd.front.text)
		check("frontier/"+spec.name+"/bwd", ss.bwd.front.text)
	}
	check("prefrontier/ALT/fwd", ss.fwd.pre.text)
	check("prefrontier/ALT/bwd", ss.bwd.pre.text)
	check("stats/fwd", ss.fwd.stats)
	check("stats/bwd", ss.bwd.stats)
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
