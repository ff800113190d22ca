package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/fem"
	"repro/internal/sweep"
)

// Per-query scratch tables.
//
// Every relational search scribbles its whole working state into the
// frontier/visited/answer tables (TVisited, TExpand, TExpCost). When all
// searches shared one set — the paper's single JDBC session — they had to
// serialize. The engine now leases each read-only search a private,
// uniquely-named set (TVisited_q0, TExpand_q0, ... TVisited_q1, ...) so N
// searches write disjoint tables and the rdb layer's per-table locks let
// them run concurrently.
//
// Sets are pooled: a release parks the set on a free list (up to
// DefaultScratchRetain) instead of dropping it, and ids recycle through a
// free-id list, so the population of distinct table names — and therefore
// of distinct statement texts and plan-cache entries —
// stays bounded no matter how many queries run. DDL (CREATE/DROP, each
// bumping the schema epoch) happens only when the pool grows past its
// high-water mark or shrinks past the retain floor, never per query.
// Every read of the graph that needs a working set leases one this way:
// the searches, reachability and the spanning forest.

// DefaultScratchRetain is how many scratch sets a release keeps warm. Sized
// for the bench's concurrency levels; small enough that the per-set
// statement shapes stay well inside the plan cache's default capacity.
const DefaultScratchRetain = 4

// scratchSet is one private set of working tables plus every statement text
// the search loops issue against it, rendered once at mint time so the hot
// path only binds parameters (the texts are per-set constants, shared by
// every query that leases the set).
type scratchSet struct {
	id      int
	rels    []sweep.Relation // the declared scratch relations under the set's names
	visited string
	expand  string
	expCost string

	// The FEM loop (fem.go): the seed and the statistics probes.
	biInit, biStatsF, biStatsB string
	// Path recovery (recover.go).
	recP2S, recP2T, meet string
	// A node's tentative distance (cross-handle unfolding, recover.go).
	distF, distB string
	// Boundary exchange between peer handles (superstep.go): harvest reads
	// the materialized E-output back out, inj1/injN push routed candidates
	// in (1 and injectChunk rows), markedF/markedB read the selected frontier.
	harvest, inj1, injN, markedF, markedB string
	// The per-search reset of the visited table (loader.go), inject's clear
	// of the expand table, and the search-space metric. Every other writer
	// of the expand and expCost tables clears them before its fill.
	reset, clearExpand, count string
	// ops holds the E+M rounds rendered over the set so far (expand.go). A
	// set serves one query at a time, so the map needs no lock.
	ops map[string]fem.Ops
}

// newScratchSet renders the statement texts for set id.
func newScratchSet(id int) *scratchSet {
	suffix := fmt.Sprintf("_q%d", id)
	rels := sweep.Owned(sweep.Scratch)
	for i := range rels {
		rels[i].Name += suffix
	}
	sc := &scratchSet{id: id, rels: rels, ops: make(map[string]fem.Ops),
		visited: TblVisited + suffix, expand: TblExpand + suffix, expCost: TblExpCost + suffix}
	v := sc.visited
	sc.biInit = "INSERT INTO " + v + " (nid, d2s, p2s, f, d2t, p2t, b) VALUES (?, 0, ?, 0, ?, ?, 1), (?, ?, ?, 1, 0, ?, 0)"
	sc.biStatsF = "SELECT MIN(d2s), MIN(d2s + d2t) FROM " + v + " WHERE f = 0"
	sc.biStatsB = "SELECT MIN(d2t), MIN(d2s + d2t) FROM " + v + " WHERE b = 0"
	sc.recP2S = "SELECT p2s FROM " + v + " WHERE nid = ?"
	sc.recP2T = "SELECT p2t FROM " + v + " WHERE nid = ?"
	sc.meet = "SELECT TOP 1 nid FROM " + v + " WHERE d2s + d2t = ?"
	sc.harvest = "SELECT nid, par, cost FROM " + sc.expand
	sc.inj1 = "INSERT INTO " + sc.expand + " (nid, par, cost) VALUES (?, ?, ?)"
	sc.injN = sc.inj1 + strings.Repeat(", (?, ?, ?)", injectChunk-1)
	sc.markedF = "SELECT nid FROM " + v + " WHERE f = ?"
	sc.markedB = "SELECT nid FROM " + v + " WHERE b = ?"
	sc.distF = "SELECT d2s FROM " + v + " WHERE nid = ?"
	sc.distB = "SELECT d2t FROM " + v + " WHERE nid = ?"
	sc.reset = "DELETE FROM " + v
	sc.clearExpand = "DELETE FROM " + sc.expand
	sc.count = "SELECT COUNT(*) FROM " + v
	return sc
}

// ScratchStats snapshots the scratch-table pool for the serving tier.
type ScratchStats struct {
	// Minted counts table-set creations (DDL); Dropped counts releases that
	// dropped a set past the retain floor.
	Minted  uint64 `json:"minted"`
	Dropped uint64 `json:"dropped"`
	// Live is the number of sets currently leased to in-flight queries;
	// Free the number parked on the free list.
	Live int `json:"live"`
	Free int `json:"free"`
}

// scratchPool leases scratch sets to searches. Acquire pops the free list
// or mints a fresh set; release parks it (up to the retain floor) or drops
// its tables. Ids recycle so table names — and every derived statement
// text — repeat instead of growing without bound.
type scratchPool struct {
	e       *Engine
	mu      sync.Mutex
	free    []*scratchSet
	freeIDs []int
	nextID  int
	live    int
	minted  uint64
	dropped uint64
}

// retain is how many released sets stay warm: DefaultScratchRetain, or
// none under a negative scratchRetain seam (every release drops; the
// cancellation-leak test runs in this mode so the catalog must return to
// its baseline exactly).
func (p *scratchPool) retain() int {
	r := p.e.scratchRetain
	if r == 0 {
		return DefaultScratchRetain
	}
	if r < 0 {
		return 0
	}
	return r
}

// acquire leases a set, minting tables when the free list is empty.
func (p *scratchPool) acquire() (*scratchSet, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		sc := p.free[n-1]
		p.free = p.free[:n-1]
		p.live++
		p.mu.Unlock()
		return sc, nil
	}
	var id int
	if n := len(p.freeIDs); n > 0 {
		id = p.freeIDs[n-1]
		p.freeIDs = p.freeIDs[:n-1]
	} else {
		id = p.nextID
		p.nextID++
	}
	p.live++
	p.minted++
	p.mu.Unlock()
	sc := newScratchSet(id)
	if err := p.e.createScratchTables(sc); err != nil {
		p.mu.Lock()
		p.live--
		p.freeIDs = append(p.freeIDs, id)
		p.mu.Unlock()
		return nil, err
	}
	return sc, nil
}

// release returns a leased set, dropping its tables past the retain floor.
func (p *scratchPool) release(sc *scratchSet) {
	p.mu.Lock()
	p.live--
	if len(p.free) < p.retain() {
		p.free = append(p.free, sc)
		p.mu.Unlock()
		return
	}
	p.dropped++
	p.mu.Unlock()
	// Drop before recycling the id: the moment the id is on freeIDs a
	// concurrent acquire may mint tables under the same names, and a drop
	// issued after that would destroy the new lease's live tables.
	p.e.dropScratchTables(sc)
	p.mu.Lock()
	p.freeIDs = append(p.freeIDs, sc.id)
	p.mu.Unlock()
}

// stats snapshots the pool.
func (p *scratchPool) stats() ScratchStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return ScratchStats{Minted: p.minted, Dropped: p.dropped, Live: p.live, Free: len(p.free)}
}

// createScratchTables mints the set's tables under the engine's index
// strategy. A recycled id may find leftovers from a drop that failed
// midway, and a failed creation leaves a partial prefix: both are dropped,
// so a failed mint never leaks catalog entries.
func (e *Engine) createScratchTables(sc *scratchSet) error {
	e.dropScratchTables(sc)
	err := e.schema(nil).Create(sc.rels...)
	if err != nil {
		e.dropScratchTables(sc)
	}
	return err
}

// dropScratchTables removes whichever of the set's tables exist.
// Best-effort: a failed drop leaves a harmless empty table that the next
// lease of this id will find already present.
func (e *Engine) dropScratchTables(sc *scratchSet) {
	_ = e.schema(nil).Drop(sc.rels...)
}
