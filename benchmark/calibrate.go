package main

import (
	"container/heap"
	"time"
)

// This host is a few cores of a shared machine, and its speed drifts: the
// same queries take up to 1.6 times as long for half a minute and then
// recover, far more than any bound BENCHMARK.json sets. The drift slows all
// allocation-heavy Go code alike, so the benchmark measures it: between the
// workload's operations it times a fixed kernel of its own (an in-memory
// Dijkstra over maps and a boxed heap, the same kind of code as the engine),
// and reports every time of the measured phase at reference speed, that is
// multiplied by calRef ÷ the kernel's time in the same pass; the set-up time
// likewise, by the kernel's time just before and after the set-up. On a quiet host
// the correction is 1; bench.host_speed reports it and raw.* the uncorrected
// values. The kernel lives here so that no change to the repository moves the
// yardstick.

const (
	calNodes  = 1024
	calDegree = 4

	// calRef is about what one kernel run between two queries takes on this
	// box in the quietest spells seen while the benchmark was written. It
	// only fixes the scale, so that corrected times read like a quiet run's
	// raw ones. How warm the caches are when the kernel runs differs between
	// workloads, so bench.host_speed compares runs of one workload, not
	// workloads.
	calRef = 420 * time.Microsecond
)

type calEdge struct {
	to int32
	w  int64
}

type calItem struct {
	node int32
	dist int64
}

type calHeap []calItem

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(calItem)) }
func (h *calHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// calibrator times the kernel and keeps the sums of the current pass.
type calibrator struct {
	adj  [][]calEdge
	wall time.Duration
	cpu  time.Duration
	runs int
	sink int64
}

// newCalibrator builds the kernel's graph: calNodes nodes on a ring, each
// with calDegree-1 more edges to nodes a fixed generator picks, weights 1-100.
func newCalibrator() *calibrator {
	c := &calibrator{adj: make([][]calEdge, calNodes)}
	x := uint64(88172645463325252)
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	for u := range c.adj {
		c.adj[u] = append(c.adj[u], calEdge{to: int32((u + 1) % calNodes), w: 1 + int64(next(100))})
		for k := 1; k < calDegree; k++ {
			c.adj[u] = append(c.adj[u], calEdge{to: int32(next(calNodes)), w: 1 + int64(next(100))})
		}
	}
	return c
}

// kernel settles every node from node 0: the same work on every call.
func (c *calibrator) kernel() int64 {
	dist := map[int32]int64{0: 0}
	done := map[int32]bool{}
	h := &calHeap{{node: 0}}
	var sum int64
	for h.Len() > 0 {
		it := heap.Pop(h).(calItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		sum += it.dist
		for _, e := range c.adj[it.node] {
			nd := it.dist + e.w
			if d, ok := dist[e.to]; !ok || nd < d {
				dist[e.to] = nd
				heap.Push(h, calItem{node: e.to, dist: nd})
			}
		}
	}
	return sum
}

// tick runs the kernel n times and adds what they took to the pass's sums.
// Workloads call it between operations, never inside a timed interval.
func (c *calibrator) tick(n int) {
	t0, c0 := time.Now(), cpuSelf()
	for i := 0; i < n; i++ {
		c.sink += c.kernel()
	}
	c.wall += time.Since(t0)
	c.cpu += cpuSelf() - c0
	c.runs += n
}

// calSpeed is how fast the host ran while the kernel took wall for runs runs:
// 1 at reference speed, 0.7 when the kernel took 1/0.7 of its reference time.
func calSpeed(wall time.Duration, runs int) float64 {
	return float64(calRef) * float64(runs) / float64(wall)
}

// take returns the pass's sums and starts the next pass.
func (c *calibrator) take() (wall, cpu time.Duration, runs int) {
	wall, cpu, runs = c.wall, c.cpu, c.runs
	c.wall, c.cpu, c.runs = 0, 0, 0
	return
}
