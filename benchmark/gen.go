package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// graphSeed fixes the data set. Power graphs of one size differ severalfold
// in search cost from seed to seed (the first few attachments decide how
// star-like the whole tree is), so a graph drawn from the run's seed would
// make seeds incomparable. The graph is therefore the benchmark's fixed data
// set, like the table data of a database benchmark, and the run's seed draws
// everything asked of it: query pairs, mutations, request order.
const graphSeed = 2011

// inputs is everything a workload gives the program under test: the graph,
// and the operations drawn from the run's seed.
type inputs struct {
	// base is the generated Power graph; mirror is base plus one isolated
	// node (id base.N), the graph the program loads and answers are checked
	// against. The isolated node makes unreachable pairs possible: Power
	// graphs are connected.
	base   *graph.Graph
	mirror *graph.Graph
	seed   int64
}

func newInputs(n, seed int64) (*inputs, error) {
	base := graph.Power(n, 3, graphSeed)
	// The mirror gets its own edge slice: mutate_mix edits it in place.
	mirror, err := graph.New(n+1, append([]graph.Edge(nil), base.Edges...))
	if err != nil {
		return nil, fmt.Errorf("mirror graph: %w", err)
	}
	return &inputs{base: base, mirror: mirror, seed: seed}, nil
}

// rand returns the generator of one input stream: the same seed and stream
// number give the same draws, whatever else the run has drawn.
func (in *inputs) rand(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(in.seed*1_000_003 + stream))
}

func (in *inputs) isolated() int64 { return in.base.N }

// oversample is how many candidate pairs are drawn per pair asked.
const oversample = 8

// pairs draws the workload's list of k pairs. Query cost varies tenfold with
// how much of the graph a search has to visit, so k independent pairs would
// make one seed's list easy and the next one's hard. Instead the list is a
// stratified sample: oversample*k random pairs are ranked by searchSpace, the
// number of nodes the paper's search touches for them, and every
// oversample-th is asked, so each list carries the same mix from cheapest to
// dearest. One pair is replaced by the endpoints of an edge, so that a
// one-hop answer is checked in every list.
func (in *inputs) pairs(k int) [][2]int64 { return in.draw(0, k) }

// warmupPairs is a list drawn like pairs that also holds two unreachable
// pairs, to and from the isolated node, so both outcomes of a search are
// checked. They stay out of the measured list because one direction makes
// the search exhaust the whole graph (seconds where a found path takes
// milliseconds): a few of them would set every percentile above the median.
func (in *inputs) warmupPairs(k int) [][2]int64 {
	ps := in.draw(1, k)
	x := in.rand(1 << 33).Int63n(in.base.N)
	ps[0] = [2]int64{x, in.isolated()}
	ps[k-1] = [2]int64{in.isolated(), x}
	return ps
}

func (in *inputs) draw(stream int64, k int) [][2]int64 {
	drawn := graph.RandomQueries(in.base, oversample*k, in.seed*1_000_003+stream)
	cost := make(map[[2]int64]int, len(drawn))
	cands := drawn[:0]
	for _, p := range drawn {
		if _, dup := cost[p]; !dup {
			cost[p] = searchSpace(in.base, p[0], p[1])
			cands = append(cands, p)
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cost[cands[a]] < cost[cands[b]] })
	ps := make([][2]int64, k)
	for j := range ps {
		ps[j] = cands[(2*j+1)*len(cands)/(2*k)]
	}
	rng := in.rand(stream + 1<<32)
	rng.Shuffle(k, func(a, b int) { ps[a], ps[b] = ps[b], ps[a] })
	ps[k/2] = in.oneHop(rng)
	return ps
}

// oneHop is the endpoints of a random edge.
func (in *inputs) oneHop(rng *rand.Rand) [2]int64 {
	e := in.base.Edges[rng.Intn(len(in.base.Edges))]
	return [2]int64{e.From, e.To}
}

// requestMix is serve_http's request list: hot pairs that the server's path
// cache holds and answers from, and cold pairs it has evicted every time they
// come round again.
type requestMix struct {
	universe [][2]int64 // the hot pairs, then the cold ones
	reqs     []int      // one pass: indexes into universe
}

// mix draws a stratified list of cold pairs, whose searches are what the
// workload measures, and one of hot pairs. A pass asks every cold pair once
// and the hot pairs in turn, perPass requests in a fixed order. With an LRU
// cache that holds the hot set but not the cold one as well (hot < cache <
// cold), every hot request after the first pass is a hit and every cold
// request a miss, on every seed: the hit share is 1 - cold/perPass by
// construction. A hot pair waits hot*perPass/(perPass-cold) requests for its
// next turn, too few to be pushed out.
func (in *inputs) mix(hot, cold, perPass int) requestMix {
	m := requestMix{universe: append(in.draw(3, hot), in.draw(2, cold)...), reqs: make([]int, perPass)}
	h, c := 0, 0
	for i := range m.reqs {
		if c < cold && i*cold/perPass >= c { // the cold requests, evenly spaced
			m.reqs[i] = hot + c
			c++
		} else {
			m.reqs[i] = h % hot
			h++
		}
	}
	// The seed perturbs the order only locally: a full shuffle could leave a
	// hot pair unasked for long enough to be evicted.
	rng := in.rand(1 << 41)
	const window = 8
	for a := 0; a+window <= perPass; a += window {
		rng.Shuffle(window, func(i, j int) { m.reqs[a+i], m.reqs[a+j] = m.reqs[a+j], m.reqs[a+i] })
	}
	return m
}
