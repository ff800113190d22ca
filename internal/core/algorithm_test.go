package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rdb"
)

// TestParseAlgorithm is the table-driven parser test for the algorithm
// names every command-line and HTTP surface shares.
func TestParseAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Algorithm
		ok   bool
	}{
		{"auto", AlgAuto, true},
		{"AUTO", AlgAuto, true},
		{"DJ", AlgDJ, true},
		{"dj", AlgDJ, true},
		{"BDJ", AlgBDJ, true},
		{"bsdj", AlgBSDJ, true},
		{"Bbfs", AlgBBFS, true},
		{"BSEG", AlgBSEG, true},
		{"alt", AlgALT, true},
		{"", 0, false},
		{"DJK", 0, false},
		{"BSE", 0, false},
		{" BSDJ", 0, false}, // no trimming: callers pass exact tokens
	} {
		got, err := ParseAlgorithm(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseAlgorithm(%q): err=%v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if !tc.ok {
			if !strings.Contains(err.Error(), "unknown algorithm") {
				t.Errorf("ParseAlgorithm(%q): unexpected error text %q", tc.in, err)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("ParseAlgorithm(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Every algorithm's String round-trips through the parser, the planner
	// sentinel included.
	for _, alg := range append([]Algorithm{AlgAuto}, allAlgorithms()...) {
		back, err := ParseAlgorithm(alg.String())
		if err != nil || back != alg {
			t.Errorf("round-trip %v: %v, %v", alg, back, err)
		}
	}
	if s := Algorithm(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown algorithm string: %q", s)
	}
}

// TestDJSettlesOnlyCloserNodes pins Algorithm 1's work: single-directional
// Dijkstra over positive weights expands exactly the nodes strictly closer
// to s than t, each once, and never expands backward.
func TestDJSettlesOnlyCloserNodes(t *testing.T) {
	g := graph.Power(400, 3, 7)
	if g.WMin() <= 0 {
		t.Fatalf("graph needs positive weights, wmin = %d", g.WMin())
	}
	e := newTestEngine(t, g, rdb.Options{}, Options{CacheSize: -1})
	for _, q := range graph.RandomQueries(g, 30, 5) {
		s, tt := q[0], q[1]
		dist, _ := graph.OneToAll(g, s, true)
		closer := 0
		for _, d := range dist {
			if d < dist[tt] {
				closer++
			}
		}
		_, qs, err := shortestPath(e, AlgDJ, s, tt)
		if err != nil {
			t.Fatalf("DJ %d->%d: %v", s, tt, err)
		}
		if qs.BackwardExpansions != 0 || qs.ForwardExpansions != closer {
			t.Errorf("DJ %d->%d: %d forward, %d backward expansions; %d nodes are closer than t",
				s, tt, qs.ForwardExpansions, qs.BackwardExpansions, closer)
		}
	}
}
