package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/graph"
)

const (
	queriesPerRound = 10
	updatesPerRound = 2 // edges given a new weight; as many are restored
	chordLifetime   = 2 // rounds a chord lives before its delete
)

// mutRound is one round of mutate_mix: a mutation batch, then ten queries.
type mutRound struct {
	batch []repro.Mutation
	// firstTrip is the batch without its last mutation, the delete of a
	// chord that does not exist yet the first time round the cycle; nil when
	// the round deletes a chord an earlier round of the same trip inserted.
	firstTrip []repro.Mutation
	ask       [][2]int64
}

// mutationCycle builds the rounds of mutate_mix. They form a cycle: every
// round gives two edges a new weight and restores the two the round before
// changed, inserts a chord between the endpoints of a pair it is about to ask
// (so that pair's answer must change), and deletes the chord of two rounds
// before, whose pair it asks again (that answer must revert: a stale cached
// path would be caught). After one trip round the cycle the graph is back
// where the trip started, so every later pass is the same work on the same
// graph.
func mutationCycle(in *inputs, rounds int) ([]mutRound, error) {
	const fresh = queriesPerRound - 1 // pairs a round asks besides the reverted one
	rng := in.rand(1 << 40)
	pairs := in.pairs(rounds * fresh)
	hasEdge := func(from, to int64) bool {
		found := false
		in.base.OutEdges(from, func(v, _ int64) { found = found || v == to })
		return found
	}
	// Each round re-weights its own two edges and chords its own pair.
	perm := rng.Perm(len(in.base.Edges))
	changed := func(r int) []graph.Edge {
		out := make([]graph.Edge, updatesPerRound)
		for i := range out {
			out[i] = in.base.Edges[perm[r*updatesPerRound+i]]
		}
		return out
	}
	chords := make([][2]int64, rounds)
	used := map[[2]int64]bool{}
	for r := range chords {
		chords[r] = [2]int64{-1, -1}
		for _, p := range pairs[r*fresh : (r+1)*fresh] {
			if !hasEdge(p[0], p[1]) && !used[p] {
				chords[r], used[p] = p, true
				break
			}
		}
		if chords[r][0] < 0 {
			return nil, fmt.Errorf("round %d: no asked pair can take a chord", r)
		}
	}
	out := make([]mutRound, rounds)
	for r := range out {
		prev, old := (r+rounds-1)%rounds, (r+rounds-chordLifetime)%rounds
		var b []repro.Mutation
		for _, ed := range changed(r) {
			b = append(b, repro.Mutation{Op: repro.MutUpdate, From: ed.From, To: ed.To, Weight: 1 + rng.Int63n(graph.MaxWeight)})
		}
		for _, ed := range changed(prev) {
			b = append(b, repro.Mutation{Op: repro.MutUpdate, From: ed.From, To: ed.To, Weight: ed.Weight})
		}
		b = append(b, repro.Mutation{Op: repro.MutInsert, From: chords[r][0], To: chords[r][1], Weight: 1 + rng.Int63n(20)})
		b = append(b, repro.Mutation{Op: repro.MutDelete, From: chords[old][0], To: chords[old][1]})
		out[r].batch = b
		if r < chordLifetime {
			out[r].firstTrip = b[:len(b)-1]
		}
		out[r].ask = append(append([][2]int64(nil), pairs[r*fresh:(r+1)*fresh]...), chords[old])
	}
	return out, nil
}

// applyToMirror keeps the mirror the graph the engine should hold.
func applyToMirror(g *graph.Graph, batch []repro.Mutation) error {
	for _, mu := range batch {
		var err error
		switch mu.Op {
		case repro.MutInsert:
			err = g.InsertEdge(mu.From, mu.To, mu.Weight)
		case repro.MutDelete:
			_, err = g.DeleteEdge(mu.From, mu.To)
		case repro.MutUpdate:
			_, err = g.UpdateEdgeWeight(mu.From, mu.To, mu.Weight)
		}
		if err != nil {
			return fmt.Errorf("mirror: %w", err)
		}
	}
	return nil
}

// runMutate is mutate_mix: one client alternating a mutation batch and ten
// BSEG queries against an engine with a fsynced WAL, then a crash (the engine
// is abandoned, never closed) and a recovery from snapshot plus WAL.
func (e *env) runMutate(setupOnly bool) error {
	dataDir, err := e.tempDir("data")
	if err != nil {
		return err
	}
	eo := repro.EngineOptions{DataDir: dataDir}
	es, err := e.setupEngine(e.sz.mutN, repro.DBOptions{}, eo, e.sz.lthd)
	if err != nil {
		return err
	}
	e.setupMetrics(es)
	if setupOnly {
		return es.eng.Close()
	}
	in, eng, db := es.in, es.eng, es.db
	cycle, err := mutationCycle(in, e.sz.mutRounds)
	if err != nil {
		return err
	}
	req := func(p [2]int64) repro.QueryRequest {
		return repro.QueryRequest{Source: p[0], Target: p[1], Alg: repro.AlgBSEG}
	}

	var (
		batchMS       [][]float64 // per measured pass, per round
		times, fixed  queryAgg
		batches       int
		batchStmts    int
		batchRepaired int64
		mutations     int
		lagTotal      time.Duration
		root          int
	)
	// pass makes one trip round the cycle; i < 0 is the unmeasured first trip.
	pass := func(i int, traced bool) (passStat, error) {
		var st passStat
		var agg queryAgg
		var bms []float64
		wall0 := time.Now()
		for r, round := range cycle {
			batch := round.batch
			if i < 0 && round.firstTrip != nil {
				batch = round.firstTrip
			}
			if err := applyToMirror(in.mirror, batch); err != nil {
				return st, err
			}
			results := make([]repro.QueryResult, len(round.ask))
			errs := make([]error, len(round.ask))
			op := (i*len(cycle) + r) * queriesPerRound

			cpu0, cal0, t0 := cpuSelf(), e.cal.cpu, time.Now()
			maint, err := eng.ApplyMutations(batch)
			d := time.Since(t0)
			if err != nil {
				return st, fmt.Errorf("round %d: ApplyMutations: %w", r, err)
			}
			st.busy += d
			bms = append(bms, ms(d))
			if traced {
				e.tr.add(root, "mutate", op, e.tr.at(t0), e.tr.at(t0)+us(d), false)
			}
			for k, p := range round.ask {
				res, d, err := e.ask(eng, req(p), &agg, traced, root, op+k)
				results[k], errs[k] = res, err
				st.busy += d
				st.latMS = append(st.latMS, ms(d))
				e.cal.tick(1)
				if i >= 0 && i < e.sz.fixed {
					e.sampleRSS(0)
				}
			}
			st.cpu += cpuSelf() - cpu0 - (e.cal.cpu - cal0)
			st.queries += len(round.ask)

			if i >= 0 && i < e.sz.fixed {
				batches++
				mutations += len(batch)
				batchStmts += maint.Statements
				batchRepaired += maint.Repaired
			}
			for k, p := range round.ask {
				e.check.answer(e.name, op+k, in.mirror, p, results[k], errs[k])
			}
		}
		if i >= 0 {
			batchMS = append(batchMS, bms)
			lagTotal += time.Since(wall0) - st.busy - e.cal.wall
			times.merge(agg)
			if i < e.sz.fixed {
				fixed.merge(agg)
			}
		}
		return st, nil
	}

	// Warm-up: the checked warm-up pairs, then the first trip round the
	// cycle, after which every pass starts from the same graph.
	e.warmUp(in, func(p [2]int64) (repro.QueryResult, error) { return eng.Query(e.ctx, req(p)) })
	if _, err := pass(-1, false); err != nil {
		return fmt.Errorf("first trip: %w", err)
	}
	dbStart, durStart, cacheStart := db.Stats(), eng.DurabilityStats(), eng.CacheStats()
	root = e.beginTrace()
	passes, err := e.runPasses(func(i int, traced bool) (passStat, error) {
		st, err := pass(i, traced)
		if err != nil || i != e.sz.fixed-1 {
			return st, err
		}
		// The fixed passes are done: take the exact counts, then the
		// snapshot whose cost and size are reported.
		e.dbCounts(dbStart, db.Stats(), fixed.queries)
		dur := eng.DurabilityStats()
		e.metrics["wal.appends"] = float64(dur.WAL.Appends - durStart.WAL.Appends)
		e.metrics["wal.syncs"] = float64(dur.WAL.Syncs - durStart.WAL.Syncs)
		e.metrics["wal.sync_ms_per_batch"] = ms(dur.WAL.SyncTime-durStart.WAL.SyncTime) / float64(batches)
		e.metrics["wal.bytes_per_mutation"] = float64(dur.WAL.Bytes-durStart.WAL.Bytes) / float64(mutations)
		e.metrics["core.mutation_stmts_per_batch"] = float64(batchStmts) / float64(batches)
		e.metrics["core.mutation_repaired_rows_per_batch"] = float64(batchRepaired) / float64(batches)
		e.metrics["core.cache_invalidations"] = float64(eng.CacheStats().Invalidations - cacheStart.Invalidations)
		ss, err := eng.Snapshot(e.ctx)
		if err != nil {
			return st, fmt.Errorf("snapshot: %w", err)
		}
		snapBytes, err := dirBytes(filepath.Join(dataDir, "snapshots"))
		if err != nil {
			return st, err
		}
		// The durable footprint at its largest: database pages, the log
		// the snapshot is about to retire, and the snapshots on disk.
		e.metrics["stored_bytes_per_edge"] = storedBytesPerEdge(db, dur.WAL.Size+snapBytes, in.mirror.M())
		e.metrics["snapshot.write_s"] = ss.Time.Seconds()
		e.metrics["snapshot.bytes_per_edge"] = float64(ss.Bytes) / float64(in.mirror.M())
		return st, e.memory(0)
	})
	if err != nil {
		return err
	}
	// The crash scenario: a snapshot, one more trip round the cycle that only
	// the WAL holds, then the engine is abandoned without Close.
	if _, err := eng.Snapshot(e.ctx); err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	if _, err := pass(len(passes), false); err != nil {
		return fmt.Errorf("trip after the final snapshot: %w", err)
	}
	e.endTrace(root)

	e.timing(passes)
	e.engineMetrics(eng, times, fixed, lagTotal)
	batch := perOperation(batchMS)
	e.metrics["mutation_batch_p50_ms"] = quantile(batch, 0.50)
	e.metrics["core.mutation_batch_p90_ms"] = quantile(batch, 0.90)
	e.metrics["core.mutation_rebuilds"] = float64(eng.MutationStats().SegRebuilds)

	db2, err := repro.Open(repro.DBOptions{})
	if err != nil {
		return fmt.Errorf("open recovery database: %w", err)
	}
	t0 := time.Now()
	eng2, err := core.OpenFromSnapshot(db2, eo)
	if err != nil {
		db2.Close()
		return fmt.Errorf("recover: %w", err)
	}
	defer eng2.Close()
	e.metrics["recover_s"] = time.Since(t0).Seconds()
	e.metrics["snapshot.replayed_records"] = float64(eng2.DurabilityStats().ReplayedRecords)
	var asked [][2]int64
	for _, round := range cycle {
		asked = append(asked, round.ask...)
	}
	for k, p := range asked {
		res, err := eng2.Query(e.ctx, req(p))
		e.check.answer(e.name+" after recovery", k, in.mirror, p, res, err)
	}
	if e.trace {
		e.mdjBaseline(in.mirror, asked)
	}
	return nil
}
