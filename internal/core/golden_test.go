package core

import (
	"bufio"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/fem"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/rdb"
)

// TestGoldenStatementTexts pins the E- and M-operator texts the default
// level (MERGE + window functions) issues to the bytes the hand-written
// renderings produced before internal/fem replaced them (captured from
// buildExpand, maintFwdShapes / maintBwdShapes, foldEdges and mstMergeQ at
// PR 16; the search lines' frontier predicate became q.f = ? at PR 24, when
// the F-operators, ALT's prune and the statistics probes joined the file):
// the fused and the separate-operator search statements, forward
// and backward, over TEdges and the SegTable, pruning and not;
// maintenance shapes 1-3; Prim's round; and the
// original-edge fold. Shape 4 is not here — it lost its no-op ROW_NUMBER
// dedupe. A plan cache keyed by text, and the benchmark's statement counts,
// see no change. The texts render over a leased scratch set, set 0.
// Reachability's unit-weight round and Prim's final-offer round are pinned
// with them (their F-operators are BSDJ's and BDJ's), and so are the
// index-build sweep's F-operator and fused round. The sweep's
// and the decremental repair's own texts (sweep/, touch/, repair/, fold/*/touched) are pinned as what a
// build, a delete and an oracle build run: the build sweeps over
// TOutSegs, which it folded the edges into, and merges its segments over
// it, the repair sweeps forward over TEdges, the oracle both ways, and the
// repair's FROM order is its plan.
//
// Since the incoming segments became TOutSegs' tid index, the eight texts
// that wrote a second segment table keyed on (tid, fid) are gone
// (maint/bwd/1-3, fold/bwd/all and fold/bwd/touched, sweep/bwd/segments,
// repair/bwd/delete and repair/bwd/insert), and four kinds of text read
// TOutSegs through that index where they read that table: the backward
// search (search/bwd/TOutSegs/*, named after that table before),
// maint/fwd/2's prefixes, and touch/prefix and touch/both.
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
	ran := textsRun(e)
	sc, err := e.scratch.acquire() // set 0: every text names the _q0 tables
	if err != nil {
		t.Fatal(err)
	}
	defer e.scratch.release(sc)
	// The search texts are read off the handle the loop runs on, so a change
	// to the frontier predicate or to what a round binds shows here: every
	// edge source and prune setting under BSDJ's rule, then each spec's own
	// F-operator, ALT's prune and the statistics probes.
	for _, seg := range []bool{false, true} {
		for _, prune := range []bool{false, true} {
			spec := specBSDJ(sc)
			spec.prune = prune
			if seg {
				spec.edges = TblOutSegs
			}
			ss := e.newSuperstep(sc, spec, 0)
			checkOps(fmt.Sprintf("search/fwd/%s/prune=%v/", spec.edges, prune), ss.fwd.ops)
			checkOps(fmt.Sprintf("search/bwd/%s/prune=%v/", spec.edges, prune), ss.bwd.ops)
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
	for i := 0; i < 3; i++ {
		check(fmt.Sprintf("maint/fwd/%d", i+1), fem.MergeSelect(e.level, maintShapes[i].src, segMerge).Round(false)[0].Text)
	}
	check("mst", e.newSuperstep(sc, specMST(sc), 0).fwd.ops.Round(false)[0].Text)
	check("reach/fused", e.newSuperstep(sc, specReach(sc), 0).fwd.ops.Round(false)[0].Text)

	// The fold renders its source per call: a build folds every edge, a
	// delete's repair the touched pairs, and both run through the engine's
	// statement path, like the sweep a build runs. Both sweep
	// forward; the backward sweep over TEdges is the oracle's.
	if _, err := e.BuildSegTable(7); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DeleteEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildOracle(oracle.Config{K: 1}); err != nil {
		t.Fatal(err)
	}
	texts := ran()
	for name, want := range golden {
		if kind, _, _ := strings.Cut(name, "/"); kind != "fold" && kind != "touch" && kind != "repair" && kind != "sweep" {
			t.Errorf("%s: golden text never checked", name)
		} else if !texts[want] {
			t.Errorf("%s: the engine never ran %s", name, want)
		}
	}
}

// TestSignProtocol runs every client of the FEM operators on one engine —
// a query per algorithm (the six loop specs), the three index
// builds, a delete's scoped repair, Prim's MST and reachability — at the
// MERGE level and at Plain, and fails on any text it ran that spells a
// sign value other than 0 or 1: internal/fem's stamps are the only other
// values, and they bind as parameters.
func TestSignProtocol(t *testing.T) {
	literal := regexp.MustCompile(`\b[fb] (=|<>) [2-9]`)
	g := graph.Random(40, 120, 99)
	cheapest := g.Edges[0]
	for _, ed := range g.Edges {
		if ed.Weight < cheapest.Weight {
			cheapest = ed
		}
	}
	for _, profile := range []rdb.Profile{rdb.ProfileDBMSX, rdb.ProfileSQL92} {
		e := newTestEngine(t, g, rdb.Options{Profile: profile}, Options{})
		ran := textsRun(e)
		if _, err := e.BuildSegTable(20); err != nil {
			t.Fatal(err)
		}
		buildOracle(t, e)
		buildLabels(t, e)
		for _, q := range graph.RandomQueries(g, 2, 3) {
			for _, alg := range allAlgorithms() {
				p, _, err := shortestPath(e, alg, q[0], q[1])
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				checkPath(t, g, alg, q[0], q[1], p)
			}
		}
		// The cheapest edge is its own shortest segment, so its delete
		// touches at least that pair and the repair sweeps.
		st, err := e.DeleteEdge(cheapest.From, cheapest.To)
		if err != nil {
			t.Fatal(err)
		}
		if st.Affected == 0 || st.Rebuilt {
			t.Fatalf("delete %d->%d: %+v, want a scoped repair", cheapest.From, cheapest.To, st)
		}
		if _, err := e.MinimumSpanningForest(); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Reachable(0, 7); err != nil {
			t.Fatal(err)
		}
		for text := range ran() {
			if literal.MatchString(text) {
				t.Errorf("%s: sign literal in %s", profile.Name, text)
			}
		}
	}
}
