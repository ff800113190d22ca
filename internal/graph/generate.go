package graph

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Weight range used throughout the paper's evaluation (§5.1): edge weights
// are assigned randomly in [1,100].
const (
	MinWeight = 1
	MaxWeight = 100
)

func randWeight(rng *rand.Rand) int64 {
	return MinWeight + rng.Int63n(MaxWeight-MinWeight+1)
}

// Random generates the paper's Random graph family: m edges whose endpoints
// are sampled uniformly among n nodes ("we randomly select the source and
// target node for m times among n nodes"). Self-loops are re-drawn;
// parallel edges may occur, as in the original procedure.
func Random(n int64, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		u := rng.Int63n(n)
		v := rng.Int63n(n)
		for v == u {
			v = rng.Int63n(n)
		}
		edges = append(edges, Edge{From: u, To: v, Weight: randWeight(rng)})
	}
	g, err := New(n, edges)
	if err != nil {
		panic(err) // generator invariants guarantee validity
	}
	return g
}

// RandomDegree generates a Random graph with average out-degree d (the
// paper's RandomxmNyd naming: x nodes, degree y).
func RandomDegree(n int64, d int, seed int64) *Graph {
	return Random(n, int(n)*d, seed)
}

// BarabasiAlbert generates the paper's Power graph family (Barabási Graph
// Generator): preferential attachment, each new node linking to d existing
// nodes with probability proportional to current degree. Both directions
// are emitted with independent weights so forward and backward searches see
// comparable frontiers, matching an undirected power-law network stored as
// directed edges.
func BarabasiAlbert(n int64, d int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	if n < 2 {
		g, _ := New(n, nil)
		return g
	}
	// targets[i] repeated by degree implements preferential attachment.
	var endpoints []int64
	edges := make([]Edge, 0, int(n)*d*2)
	addEdge := func(u, v int64) {
		edges = append(edges, Edge{From: u, To: v, Weight: randWeight(rng)})
		edges = append(edges, Edge{From: v, To: u, Weight: randWeight(rng)})
		endpoints = append(endpoints, u, v)
	}
	addEdge(0, 1)
	for u := int64(2); u < n; u++ {
		k := d
		if int64(k) >= u {
			k = int(u)
		}
		seen := make(map[int64]bool, k)
		for len(seen) < k {
			v := endpoints[rng.Intn(len(endpoints))]
			if v == u || seen[v] {
				// Fall back to a uniform draw to guarantee progress on
				// small prefixes.
				v = rng.Int63n(u)
				if v == u || seen[v] {
					continue
				}
			}
			seen[v] = true
			addEdge(u, v)
		}
	}
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Power is the paper's PowerxkNyd naming: BarabasiAlbert with d = y/2 so
// the average total degree is about y (each attachment adds both
// directions).
func Power(n int64, avgDegree int, seed int64) *Graph {
	d := avgDegree / 2
	if d < 1 {
		d = 1
	}
	return BarabasiAlbert(n, d, seed)
}

// DBLPLike is a synthetic substitute for the paper's DBLP co-authorship
// snapshot (312,967 nodes, 1,149,663 edges ≈ degree 3.7, mild skew,
// symmetric edges). Scale 1.0 reproduces those proportions; smaller scales
// shrink the node count, keeping the average degree.
func DBLPLike(scale float64, seed int64) *Graph {
	n := int64(float64(312967) * scale)
	if n < 100 {
		n = 100
	}
	// Co-authorship: mostly uniform collaboration plus a mild hub layer.
	rng := rand.New(rand.NewSource(seed))
	var edges []Edge
	m := int(float64(n) * 1.85) // pairs; doubled below
	for i := 0; i < m; i++ {
		u := rng.Int63n(n)
		var v int64
		if rng.Float64() < 0.25 {
			v = rng.Int63n(n/10 + 1) // prolific authors
		} else {
			v = rng.Int63n(n)
		}
		if u == v {
			continue
		}
		edges = append(edges, Edge{From: u, To: v, Weight: randWeight(rng)})
		edges = append(edges, Edge{From: v, To: u, Weight: randWeight(rng)})
	}
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// GoogleWebLike is a synthetic substitute for the GoogleWeb snapshot
// (855,802 nodes, 5,066,842 edges ≈ degree 5.9, strongly skewed in-degree,
// directed). The skew is what makes its SegTable size sensitive to lthd
// (Fig 9(b) discussion).
func GoogleWebLike(scale float64, seed int64) *Graph {
	n := int64(float64(855802) * scale)
	if n < 100 {
		n = 100
	}
	rng := rand.New(rand.NewSource(seed))
	var edges []Edge
	m := int(float64(n) * 5.9)
	for i := 0; i < m; i++ {
		u := rng.Int63n(n)
		// Preferential-style target: squared draw skews toward low ids,
		// emulating heavy-tailed in-degree without tracking degrees.
		f := rng.Float64()
		v := int64(f * f * float64(n))
		if v >= n {
			v = n - 1
		}
		if u == v {
			continue
		}
		edges = append(edges, Edge{From: u, To: v, Weight: randWeight(rng)})
	}
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// LiveJournalLike is a synthetic substitute for the LiveJournal snapshot
// (4,847,571 nodes, 43,110,428 edges ≈ degree 8.9, social network with
// mostly reciprocated links).
func LiveJournalLike(scale float64, seed int64) *Graph {
	n := int64(float64(4847571) * scale)
	if n < 100 {
		n = 100
	}
	rng := rand.New(rand.NewSource(seed))
	var edges []Edge
	m := int(float64(n) * 4.45) // pairs; most reciprocated
	for i := 0; i < m; i++ {
		u := rng.Int63n(n)
		f := rng.Float64()
		v := int64(f * f * f * float64(n)) // stronger hub skew than web
		if rng.Float64() < 0.5 {
			v = rng.Int63n(n)
		}
		if v >= n {
			v = n - 1
		}
		if u == v {
			continue
		}
		edges = append(edges, Edge{From: u, To: v, Weight: randWeight(rng)})
		if rng.Float64() < 0.75 { // reciprocation rate
			edges = append(edges, Edge{From: v, To: u, Weight: randWeight(rng)})
		}
	}
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// RandomQueries draws q (source, target) pairs with distinct endpoints, the
// paper's workload ("we randomly generate 100 shortest path queries, and
// report the average time cost").
func RandomQueries(g *Graph, q int, seed int64) [][2]int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]int64, 0, q)
	for len(out) < q {
		s := rng.Int63n(g.N)
		t := rng.Int63n(g.N)
		if s == t {
			continue
		}
		out = append(out, [2]int64{s, t})
	}
	return out
}

// ParseGen builds the graph a command's -gen flag names:
//
//	power:N:D | random:N:M | dblp:PCT | web:PCT | lj:PERMILLE
//
// Every field is required and must be a positive integer (N at least 2: the
// generators draw edges between distinct nodes); nothing is defaulted.
func ParseGen(spec string, seed int64) (*Graph, error) {
	parts := strings.Split(spec, ":")
	fields, ok := map[string]int{"power": 2, "random": 2, "dblp": 1, "web": 1, "lj": 1}[parts[0]]
	if !ok {
		return nil, fmt.Errorf("unknown generator %q (power|random|dblp|web|lj)", parts[0])
	}
	if len(parts) != fields+1 {
		return nil, fmt.Errorf("generator spec %q: %s takes %d numeric field(s)", spec, parts[0], fields)
	}
	var v [2]int64
	for i, p := range parts[1:] {
		x, err := strconv.ParseInt(p, 10, 64)
		if err != nil || x < 1 {
			return nil, fmt.Errorf("generator spec %q: %q is not a positive integer", spec, p)
		}
		v[i] = x
	}
	if fields == 2 && v[0] < 2 {
		return nil, fmt.Errorf("generator spec %q: need at least 2 nodes", spec)
	}
	switch parts[0] {
	case "power":
		return Power(v[0], int(v[1]), seed), nil
	case "random":
		return Random(v[0], int(v[1]), seed), nil
	case "dblp":
		return DBLPLike(float64(v[0])/100, seed), nil
	case "web":
		return GoogleWebLike(float64(v[0])/100, seed), nil
	}
	return LiveJournalLike(float64(v[0])/1000, seed), nil
}
