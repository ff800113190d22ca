// Package graph provides the workload substrate: an in-memory weighted
// directed graph model, deterministic generators matching the paper's
// datasets (uniform Random graphs, Barabási–Albert Power graphs, and
// synthetic analogs of the DBLP / GoogleWeb / LiveJournal snapshots), CSV
// persistence, and the in-memory baselines MDJ (Dijkstra) and MBDJ
// (bi-directional Dijkstra) that Fig 8(d) compares against.
package graph

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Edge is one weighted directed edge.
type Edge struct {
	From, To int64
	Weight   int64
}

// Graph is a weighted directed graph with node ids 0..N-1. Out and In
// adjacency lists are both kept: forward search expands outgoing edges,
// backward search incoming ones.
type Graph struct {
	N     int64
	Edges []Edge
	out   [][]halfEdge
	in    [][]halfEdge
	wmin  int64
}

type halfEdge struct {
	to int64
	w  int64
}

// MaxNodes is the most nodes New accepts, so the largest graph ReadCSV
// builds: 2^23, above the paper's largest dataset (the LiveJournal
// snapshot, 4,847,571 nodes). A graph costs two adjacency slice headers per
// node before its first edge, so the bound is what keeps a "# nodes=" header
// or a node id from asking for gigabytes.
const MaxNodes = 1 << 23

// MaxEdges is the most edges a generator spec may ask for (ParseGen): 2^27,
// above the LiveJournal snapshot's 43,110,428. With MaxNodes it refuses a
// spec whose edge list alone would not fit in memory, before anything is
// generated.
const MaxEdges = 1 << 27

// New builds a graph from an edge list over n nodes, 0 <= n <= MaxNodes.
func New(n int64, edges []Edge) (*Graph, error) {
	if n < 0 || n > MaxNodes {
		return nil, fmt.Errorf("graph: %d nodes outside [0, %d]", n, MaxNodes)
	}
	g := &Graph{N: n, Edges: edges}
	g.out = make([][]halfEdge, n)
	g.in = make([][]halfEdge, n)
	g.wmin = 1 << 62
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
		if e.Weight < 0 {
			return nil, fmt.Errorf("graph: negative weight %d on (%d,%d)", e.Weight, e.From, e.To)
		}
		g.out[e.From] = append(g.out[e.From], halfEdge{to: e.To, w: e.Weight})
		g.in[e.To] = append(g.in[e.To], halfEdge{to: e.From, w: e.Weight})
		if e.Weight < g.wmin {
			g.wmin = e.Weight
		}
	}
	if len(edges) == 0 {
		g.wmin = 1
	}
	return g, nil
}

// M returns the number of edges.
func (g *Graph) M() int { return len(g.Edges) }

// Collapse sorts edges by (From, To) and keeps one edge of each pair, its
// cheapest: the rows a relational edge table keyed on the pair stores, and
// the effective weights every shortest path search sees. It reuses edges'
// array.
func Collapse(edges []Edge) []Edge {
	slices.SortFunc(edges, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To), cmp.Compare(a.Weight, b.Weight))
	})
	return slices.CompactFunc(edges, func(a, b Edge) bool { return a.From == b.From && a.To == b.To })
}

// WMin returns the minimal edge weight (1 when the graph has no edges).
func (g *Graph) WMin() int64 { return g.wmin }

// OutDegree returns a node's out-degree.
func (g *Graph) OutDegree(u int64) int { return len(g.out[u]) }

// OutEdges visits u's outgoing edges.
func (g *Graph) OutEdges(u int64, fn func(v, w int64)) {
	for _, e := range g.out[u] {
		fn(e.to, e.w)
	}
}

// InEdges visits u's incoming edges.
func (g *Graph) InEdges(u int64, fn func(v, w int64)) {
	for _, e := range g.in[u] {
		fn(e.to, e.w)
	}
}

// InsertEdge appends a directed (from, to, weight) edge, keeping the
// adjacency lists and the minimal weight in sync. A pair may hold parallel
// edges; its effective weight, what a search sees, is the cheapest (the
// engine stores that one alone, see Collapse).
func (g *Graph) InsertEdge(from, to, weight int64) error {
	if from < 0 || from >= g.N || to < 0 || to >= g.N {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", from, to, g.N)
	}
	if weight < 0 {
		return fmt.Errorf("graph: negative weight %d on (%d,%d)", weight, from, to)
	}
	g.Edges = append(g.Edges, Edge{From: from, To: to, Weight: weight})
	g.out[from] = append(g.out[from], halfEdge{to: to, w: weight})
	g.in[to] = append(g.in[to], halfEdge{to: from, w: weight})
	if weight < g.wmin {
		g.wmin = weight
	}
	return nil
}

// DeleteEdge removes every (from, to) edge, so the pair has none, as
// Engine.DeleteEdge does, and returns how many were removed. Deleting a pair
// with no edge is an error so differential tests catch divergence.
func (g *Graph) DeleteEdge(from, to int64) (int, error) {
	if from < 0 || from >= g.N || to < 0 || to >= g.N {
		return 0, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", from, to, g.N)
	}
	kept := g.Edges[:0]
	removed := 0
	for _, e := range g.Edges {
		if e.From == from && e.To == to {
			removed++
			continue
		}
		kept = append(kept, e)
	}
	if removed == 0 {
		return 0, fmt.Errorf("graph: no edge (%d,%d)", from, to)
	}
	g.Edges = kept
	g.out[from] = dropHalf(g.out[from], to)
	g.in[to] = dropHalf(g.in[to], from)
	g.recomputeWMin()
	return removed, nil
}

// UpdateEdgeWeight sets the weight of every (from, to) edge to weight, so
// the pair's effective weight is weight, as Engine.UpdateEdgeWeight sets
// it, and returns how many edges changed.
func (g *Graph) UpdateEdgeWeight(from, to, weight int64) (int, error) {
	if from < 0 || from >= g.N || to < 0 || to >= g.N {
		return 0, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", from, to, g.N)
	}
	if weight < 0 {
		return 0, fmt.Errorf("graph: negative weight %d on (%d,%d)", weight, from, to)
	}
	updated := 0
	for i := range g.Edges {
		if g.Edges[i].From == from && g.Edges[i].To == to {
			g.Edges[i].Weight = weight
			updated++
		}
	}
	if updated == 0 {
		return 0, fmt.Errorf("graph: no edge (%d,%d)", from, to)
	}
	setHalf(g.out[from], to, weight)
	setHalf(g.in[to], from, weight)
	g.recomputeWMin()
	return updated, nil
}

// Clone deep-copies the graph so a mutation test can keep pre- and
// post-mutation mirrors side by side.
func (g *Graph) Clone() *Graph {
	c := &Graph{N: g.N, wmin: g.wmin}
	c.Edges = append([]Edge(nil), g.Edges...)
	c.out = make([][]halfEdge, g.N)
	c.in = make([][]halfEdge, g.N)
	for i := range g.out {
		c.out[i] = append([]halfEdge(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]halfEdge(nil), g.in[i]...)
	}
	return c
}

func dropHalf(list []halfEdge, to int64) []halfEdge {
	kept := list[:0]
	for _, h := range list {
		if h.to != to {
			kept = append(kept, h)
		}
	}
	return kept
}

func setHalf(list []halfEdge, to, w int64) {
	for i := range list {
		if list[i].to == to {
			list[i].w = w
		}
	}
}

func (g *Graph) recomputeWMin() {
	g.wmin = 1 << 62
	for _, e := range g.Edges {
		if e.Weight < g.wmin {
			g.wmin = e.Weight
		}
	}
	if len(g.Edges) == 0 {
		g.wmin = 1
	}
}

// LocalityOrder numbers g's nodes breadth-first over the undirected graph:
// each component starts at its lowest id not yet numbered, and a node's
// neighbours — out-edges, then in-edges, in adjacency order — take the next
// numbers in the order they are first seen. toExt[i] is the node numbered i
// and toInt its inverse. Neighbours get nearby numbers, so a relation
// clustered on a node id keeps the rows of one search frontier on few pages.
// O(n + m).
func LocalityOrder(g *Graph) (toInt, toExt []int64) {
	toInt = make([]int64, g.N)
	for i := range toInt {
		toInt[i] = -1
	}
	// toExt doubles as the BFS queue: the nodes numbered so far, in order.
	toExt = make([]int64, 0, g.N)
	number := func(v int64) {
		if toInt[v] < 0 {
			toInt[v] = int64(len(toExt))
			toExt = append(toExt, v)
		}
	}
	for root := int64(0); root < g.N; root++ {
		if toInt[root] >= 0 {
			continue
		}
		number(root)
		for head := toInt[root]; head < int64(len(toExt)); head++ {
			u := toExt[head]
			for _, h := range g.out[u] {
				number(h.to)
			}
			for _, h := range g.in[u] {
				number(h.to)
			}
		}
	}
	return toInt, toExt
}

// WriteCSV streams the graph as "fid,tid,cost" lines preceded by a header
// comment carrying the node count.
func (g *Graph) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.N, len(g.Edges)); err != nil {
		return err
	}
	for _, e := range g.Edges {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d\n", e.From, e.To, e.Weight); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses the WriteCSV format. Without a "# nodes=" header the node
// count is the largest id plus one. A count or an id that is negative, does
// not parse or exceeds MaxNodes is an error.
func ReadCSV(r io.Reader) (*Graph, error) {
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 1<<20), 1<<20)
	var n int64 = -1
	var edges []Edge
	var maxID int64
	for br.Scan() {
		line := strings.TrimSpace(br.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if i := strings.Index(line, "nodes="); i >= 0 {
				rest := line[i+len("nodes="):]
				if j := strings.IndexAny(rest, " \t"); j >= 0 {
					rest = rest[:j]
				}
				v, err := strconv.ParseInt(rest, 10, 64)
				if err != nil || v < 0 || v > MaxNodes {
					return nil, fmt.Errorf("graph: bad node count in %q (at most %d)", line, MaxNodes)
				}
				n = v
			}
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("graph: bad CSV line %q", line)
		}
		f, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: bad fid in %q", line)
		}
		t, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: bad tid in %q", line)
		}
		w, err := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: bad cost in %q", line)
		}
		edges = append(edges, Edge{From: f, To: t, Weight: w})
		if f > maxID {
			maxID = f
		}
		if t > maxID {
			maxID = t
		}
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		if maxID >= MaxNodes {
			return nil, fmt.Errorf("graph: node id %d exceeds the %d-node limit", maxID, MaxNodes)
		}
		n = maxID + 1
	}
	return New(n, edges)
}

// SaveFile writes the graph to path in CSV form.
func (g *Graph) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return g.WriteCSV(f)
}

// LoadFile reads a CSV graph from path.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}
