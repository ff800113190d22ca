package graph

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(2, []Edge{{From: 0, To: 5, Weight: 1}}); err == nil {
		t.Fatal("out-of-range edge must fail")
	}
	if _, err := New(2, []Edge{{From: 0, To: 1, Weight: -1}}); err == nil {
		t.Fatal("negative weight must fail")
	}
	g, err := New(3, nil)
	if err != nil || g.WMin() != 1 {
		t.Fatalf("empty graph: %v wmin=%d", err, g.WMin())
	}
}

func TestAdjacency(t *testing.T) {
	g, _ := New(3, []Edge{
		{From: 0, To: 1, Weight: 5},
		{From: 0, To: 2, Weight: 7},
		{From: 2, To: 0, Weight: 3},
	})
	if g.OutDegree(0) != 2 || g.OutDegree(1) != 0 {
		t.Fatal("out degrees")
	}
	if g.WMin() != 3 {
		t.Fatalf("wmin: %d", g.WMin())
	}
	var ins []int64
	g.InEdges(0, func(v, w int64) { ins = append(ins, v) })
	if len(ins) != 1 || ins[0] != 2 {
		t.Fatalf("in edges: %v", ins)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Random(100, 300, 7)
	b := Random(100, 300, 7)
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("nondeterministic edges")
		}
	}
	c := Random(100, 300, 8)
	same := true
	for i := range a.Edges {
		if a.Edges[i] != c.Edges[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestWeightsInRange(t *testing.T) {
	for _, g := range []*Graph{
		Random(200, 600, 1),
		Power(200, 3, 2),
		DBLPLike(0.001, 3),
		GoogleWebLike(0.0005, 4),
		LiveJournalLike(0.0001, 5),
	} {
		for _, e := range g.Edges {
			if e.Weight < MinWeight || e.Weight > MaxWeight {
				t.Fatalf("weight %d out of [1,100]", e.Weight)
			}
			if e.From == e.To {
				t.Fatalf("self loop %v", e)
			}
		}
	}
}

func TestPowerGraphSkew(t *testing.T) {
	g := Power(2000, 3, 11)
	maxDeg, sum := 0, 0
	for u := int64(0); u < g.N; u++ {
		d := g.OutDegree(u)
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(sum) / float64(g.N)
	if avg < 1.5 || avg > 6 {
		t.Fatalf("average degree off: %f", avg)
	}
	// Preferential attachment produces hubs far above the average.
	if float64(maxDeg) < 8*avg {
		t.Fatalf("no hubs: max=%d avg=%f", maxDeg, avg)
	}
}

func TestRandomDegree(t *testing.T) {
	g := RandomDegree(500, 3, 1)
	if g.M() != 1500 {
		t.Fatalf("edge count: %d", g.M())
	}
}

func TestCSVRoundtrip(t *testing.T) {
	g := Random(50, 150, 9)
	var buf bytes.Buffer
	if err := g.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.M() != g.M() {
		t.Fatalf("roundtrip size: %d/%d vs %d/%d", g2.N, g2.M(), g.N, g.M())
	}
	for i := range g.Edges {
		if g.Edges[i] != g2.Edges[i] {
			t.Fatal("roundtrip edges differ")
		}
	}
}

func TestCSVFileRoundtrip(t *testing.T) {
	g := Power(40, 3, 2)
	path := filepath.Join(t.TempDir(), "g.csv")
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N != g.N || g2.M() != g.M() {
		t.Fatal("file roundtrip size")
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("1,2\n")); err == nil {
		t.Fatal("short line must fail")
	}
	if _, err := ReadCSV(bytes.NewBufferString("a,2,3\n")); err == nil {
		t.Fatal("bad fid must fail")
	}
	// Missing header: node count inferred from max id.
	g, err := ReadCSV(bytes.NewBufferString("0,4,7\n"))
	if err != nil || g.N != 5 {
		t.Fatalf("inferred n: %v %v", g, err)
	}
}

func TestMDJBasic(t *testing.T) {
	g, _ := New(4, []Edge{
		{From: 0, To: 1, Weight: 1},
		{From: 1, To: 2, Weight: 1},
		{From: 0, To: 2, Weight: 5},
		{From: 2, To: 3, Weight: 1},
	})
	r := MDJ(g, 0, 3)
	if !r.Found || r.Distance != 3 {
		t.Fatalf("mdj: %+v", r)
	}
	want := []int64{0, 1, 2, 3}
	for i := range want {
		if r.Path[i] != want[i] {
			t.Fatalf("path: %v", r.Path)
		}
	}
	r = MDJ(g, 3, 0)
	if r.Found {
		t.Fatal("3->0 unreachable")
	}
	r = MDJ(g, 1, 1)
	if !r.Found || r.Distance != 0 || len(r.Path) != 1 {
		t.Fatalf("self path: %+v", r)
	}
}

func TestMBDJBasic(t *testing.T) {
	g, _ := New(4, []Edge{
		{From: 0, To: 1, Weight: 1},
		{From: 1, To: 2, Weight: 1},
		{From: 2, To: 3, Weight: 1},
	})
	r := MBDJ(g, 0, 3)
	if !r.Found || r.Distance != 3 || len(r.Path) != 4 {
		t.Fatalf("mbdj: %+v", r)
	}
	if r.Path[0] != 0 || r.Path[3] != 3 {
		t.Fatalf("endpoints: %v", r.Path)
	}
	if MBDJ(g, 3, 0).Found {
		t.Fatal("reverse unreachable")
	}
}

// TestQuickMDJvsMBDJ: the in-memory searches — point-to-point both ways,
// one-to-all in both directions — agree on random graphs, and recovered
// paths have exactly the reported length.
func TestQuickMDJvsMBDJ(t *testing.T) {
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(20 + rng.Intn(60))
		g := Random(n, int(n)*3, seed)
		for trial := 0; trial < 5; trial++ {
			s, tt := rng.Int63n(n), rng.Int63n(n)
			a := MDJ(g, s, tt)
			b := MBDJ(g, s, tt)
			if a.Found != b.Found {
				return false
			}
			from, _ := OneToAll(g, s, true)
			to, _ := OneToAll(g, tt, false)
			if from[tt] != a.Distance || to[s] != a.Distance {
				return false
			}
			if !a.Found {
				continue
			}
			if a.Distance != b.Distance {
				return false
			}
			la, oka := g.PathLength(a.Path)
			lb, okb := g.PathLength(b.Path)
			if !oka || !okb || la != a.Distance || lb != b.Distance {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPathLength(t *testing.T) {
	g, _ := New(3, []Edge{
		{From: 0, To: 1, Weight: 2},
		{From: 0, To: 1, Weight: 1}, // parallel cheaper edge
		{From: 1, To: 2, Weight: 3},
	})
	l, ok := g.PathLength([]int64{0, 1, 2})
	if !ok || l != 4 { // picks the cheaper parallel edge
		t.Fatalf("path length: %d %v", l, ok)
	}
	if _, ok := g.PathLength([]int64{0, 2}); ok {
		t.Fatal("non-edge hop must fail")
	}
	if _, ok := g.PathLength(nil); ok {
		t.Fatal("empty path must fail")
	}
}

func TestRandomQueries(t *testing.T) {
	g := Random(50, 100, 3)
	qs := RandomQueries(g, 20, 4)
	if len(qs) != 20 {
		t.Fatalf("query count: %d", len(qs))
	}
	for _, q := range qs {
		if q[0] == q[1] || q[0] < 0 || q[0] >= g.N || q[1] < 0 || q[1] >= g.N {
			t.Fatalf("bad query: %v", q)
		}
	}
	// Deterministic per seed.
	qs2 := RandomQueries(g, 20, 4)
	for i := range qs {
		if qs[i] != qs2[i] {
			t.Fatal("queries nondeterministic")
		}
	}
}

func TestRealLikeSizes(t *testing.T) {
	d := DBLPLike(0.01, 1)
	if d.N < 3000 || d.N > 3200 {
		t.Fatalf("dblp scale: %d", d.N)
	}
	w := GoogleWebLike(0.01, 1)
	if w.N < 8000 || w.N > 9000 {
		t.Fatalf("web scale: %d", w.N)
	}
	l := LiveJournalLike(0.001, 1)
	if l.N < 4500 || l.N > 5000 {
		t.Fatalf("lj scale: %d", l.N)
	}
	// Average degrees roughly match the real datasets.
	if avg := float64(d.M()) / float64(d.N); avg < 2.5 || avg > 4.5 {
		t.Fatalf("dblp degree: %f", avg)
	}
	if avg := float64(w.M()) / float64(w.N); avg < 4.5 || avg > 7 {
		t.Fatalf("web degree: %f", avg)
	}
	if avg := float64(l.M()) / float64(l.N); avg < 6 || avg > 10 {
		t.Fatalf("lj degree: %f", avg)
	}
}

// TestParseGen: every family of the -gen flag builds the graph the direct
// call builds, and a spec that names no family, leaves a field out, adds one
// or carries a malformed number is an error — never a default.
func TestParseGen(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want *Graph
	}{
		{"power:300:3", Power(300, 3, 9)},
		{"random:200:600", Random(200, 600, 9)},
		{"dblp:1", DBLPLike(0.01, 9)},
		{"web:1", GoogleWebLike(0.01, 9)},
		{"lj:1", LiveJournalLike(0.001, 9)},
	} {
		g, err := ParseGen(tc.spec, 9)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if g.N != tc.want.N || !slices.Equal(g.Edges, tc.want.Edges) {
			t.Errorf("%s: %d nodes / %d edges, the generator builds %d / %d", tc.spec, g.N, g.M(), tc.want.N, tc.want.M())
		}
	}
	for _, spec := range []string{
		"", "grid:10:10", // unknown family
		"power:abc:3", "random:200:6e2", "dblp:1.5", "lj:-3", "web:0", // malformed number
		"power", "power:300", "random:200:", "dblp", // missing field
		"power:300:3:1", "web:1:2", // extra field
		"random:1:5", // cannot draw an edge between distinct nodes
	} {
		if g, err := ParseGen(spec, 9); err == nil {
			t.Errorf("%q: no error, %d nodes", spec, g.N)
		}
	}
}
