package core

import (
	"time"

	"repro/internal/obs"
)

// The engine's observability surface: Engine.Query feeds per-algorithm
// latency and gate-wait histograms (observeQuery), and the engine exports
// every subsystem counter it already tracks — gate admissions, scratch
// pool, snapshot retries, path cache, mutation counters, graph metadata —
// as one obs.Collector. The serving tier registers it on a Registry next
// to the DB's collector and its own; nothing here runs unless something
// scrapes.

// observeQuery records one Engine.Query call in the engine's instruments.
// Successful answers land in the latency histogram of the algorithm that
// answered (AlgAuto for oracle-only and trivial answers); failures —
// cancellations, budget exhaustion, validation errors — count in
// queryErrs and are kept out of the histograms so tail percentiles
// measure answered queries, not deadline settings. Gate wait is recorded
// for every call that reached admission, success or not: admission
// queueing under overload is exactly what it exists to show.
func (e *Engine) observeQuery(req QueryRequest, res QueryResult, err error, rec stageRec, total time.Duration) {
	if rec.gate > 0 {
		e.gateWaitDur.Observe(rec.gate.Seconds())
	}
	if err != nil {
		e.queryErrs.Add(1)
		return
	}
	alg := int(res.Algorithm)
	if alg < 0 || alg >= numAlgs {
		alg = int(AlgAuto)
	}
	e.queryDur[alg].Observe(total.Seconds())
}

// QueryErrors counts Engine.Query calls that returned an error (including
// cancellations and budget exhaustion).
func (e *Engine) QueryErrors() uint64 { return e.queryErrs.Load() }

// QueryLatency exposes the latency histogram of one algorithm's answered
// queries (/metrics exports all of them).
func (e *Engine) QueryLatency(alg Algorithm) *obs.Histogram {
	if int(alg) < 0 || int(alg) >= numAlgs {
		return e.queryDur[AlgAuto]
	}
	return e.queryDur[alg]
}

// trackBuild marks an index build or graph load as in flight for the
// readiness probe; the returned func clears it. Builds count from entry
// (including their wait for the exclusive gate): a replica queued behind a
// rebuild is just as cold as one mid-rebuild.
func (e *Engine) trackBuild() func() {
	e.building.Add(1)
	return func() { e.building.Add(-1) }
}

// BuildsInFlight reports how many index builds or graph loads are running
// (or queued on the gate) right now. The serving tier's /readyz reports
// 503 while this is non-zero: a replica rebuilding its SegTable or oracle
// answers exact queries slowly or not at all, and load balancers should
// route elsewhere.
func (e *Engine) BuildsInFlight() int { return int(e.building.Load()) }

// CollectMetrics implements obs.Collector: the engine-level families of
// the /metrics page. Metric names and label sets are stable — the golden
// exposition test pins them — and every family is emitted on every scrape
// (zero-valued families included) so dashboards never see series flicker
// in and out of existence.
func (e *Engine) CollectMetrics(x *obs.Exporter) {
	// Per-algorithm latency histograms. All algorithms emit every scrape;
	// an algorithm that never ran exports empty buckets.
	for a := 0; a < numAlgs; a++ {
		x.Histogram("spdb_query_duration_seconds",
			"Latency of answered queries by the algorithm that answered (Auto = oracle-only or trivial).",
			e.queryDur[a], obs.L("algorithm", Algorithm(a).String()))
	}
	x.Histogram("spdb_gate_wait_seconds",
		"Time queries spent queued on the admission gate before running.", e.gateWaitDur)
	x.Counter("spdb_query_errors_total",
		"Engine.Query calls that returned an error (cancellations, budgets, validation).",
		float64(e.queryErrs.Load()))

	gs := e.gate.stats()
	x.Counter("spdb_gate_admissions_total", "Successful gate admissions by mode.",
		float64(gs.SharedAdmits), obs.L("mode", "shared"))
	x.Counter("spdb_gate_admissions_total", "Successful gate admissions by mode.",
		float64(gs.ExclusiveAdmits), obs.L("mode", "exclusive"))
	x.Counter("spdb_gate_abandons_total",
		"Gate waiters that gave up on a cancelled context.", float64(gs.Abandons))
	x.Counter("spdb_gate_drains_total",
		"Exclusive admissions that had to wait for readers or another writer.", float64(gs.Drains))
	x.Gauge("spdb_gate_readers", "In-flight shared admissions.", float64(gs.Readers))
	x.Gauge("spdb_gate_peak_readers",
		"High-water mark of concurrent shared admissions.", float64(gs.PeakReaders))
	x.Gauge("spdb_gate_readers_waiting", "Readers queued on the gate.", float64(gs.ReadersWaiting))
	x.Gauge("spdb_gate_writers_waiting", "Writers queued on the gate.", float64(gs.WritersWaiting))
	x.Gauge("spdb_gate_writer_active", "1 while an exclusive holder runs.", b2f(gs.WriterActive))
	x.Counter("spdb_snapshot_retries_total",
		"Searches failed because the graph version moved between admission and commit (0 unless the gate is broken).",
		float64(e.snapRetries.Load()))

	ss := e.scratch.stats()
	x.Counter("spdb_scratch_minted_total", "Scratch table sets created (DDL).", float64(ss.Minted))
	x.Counter("spdb_scratch_dropped_total",
		"Scratch table sets dropped past the retain floor.", float64(ss.Dropped))
	x.Gauge("spdb_scratch_live", "Scratch sets leased to in-flight queries.", float64(ss.Live))
	x.Gauge("spdb_scratch_free", "Scratch sets parked on the free list.", float64(ss.Free))

	cs := e.CacheStats()
	x.Counter("spdb_path_cache_hits_total", "Path cache hits.", float64(cs.Hits))
	x.Counter("spdb_path_cache_misses_total", "Path cache misses.", float64(cs.Misses))
	x.Counter("spdb_path_cache_evictions_total", "Path cache LRU evictions.", float64(cs.Evictions))
	x.Counter("spdb_path_cache_invalidations_total",
		"Whole-cache purges (graph reload, index build, mutation).", float64(cs.Invalidations))
	x.Gauge("spdb_path_cache_entries", "Live path cache entries.", float64(cs.Entries))
	x.Gauge("spdb_path_cache_capacity", "Path cache capacity.", float64(cs.Capacity))

	ms := e.MutationStats()
	x.Counter("spdb_mutations_total", "Applied edge mutations by kind.",
		float64(ms.Inserts), obs.L("op", "insert"))
	x.Counter("spdb_mutations_total", "Applied edge mutations by kind.",
		float64(ms.Deletes), obs.L("op", "delete"))
	x.Counter("spdb_mutations_total", "Applied edge mutations by kind.",
		float64(ms.Updates), obs.L("op", "update"))
	x.Counter("spdb_mutation_batches_total",
		"Mutation batches (single-edge calls included) that applied at least one mutation.", float64(ms.Batches))
	x.Counter("spdb_seg_repairs_total", "Scoped decremental SegTable repairs.", float64(ms.SegRepairs))
	x.Counter("spdb_seg_rebuilds_total",
		"Threshold-exceeded fallbacks to a full SegTable rebuild.", float64(ms.SegRebuilds))
	x.Counter("spdb_seg_rows_repaired_total",
		"SegTable rows re-materialized by scoped repairs.", float64(ms.RowsRepaired))
	x.Counter("spdb_oracle_invalidations_total",
		"Mutations or batches that killed a built landmark oracle.", float64(ms.OracleInvalidations))
	x.Counter("spdb_label_keeps_total",
		"Mutations the hub-label keep-analysis absorbed (index survived).", float64(ms.LabelKeeps))
	x.Counter("spdb_label_invalidations_total",
		"Mutations that sent a built hub-label index cold.", float64(ms.LabelInvalidations))

	ds := e.DurabilityStats()
	x.Gauge("spdb_wal_armed",
		"1 while a mutation WAL is armed (Options.DataDir set and a graph loaded).", b2f(ds.Armed))
	x.Counter("spdb_wal_records_total",
		"Mutation batches appended to the write-ahead log.", float64(ds.WAL.Appends))
	x.Counter("spdb_wal_bytes_total", "Framed bytes appended to the WAL.", float64(ds.WAL.Bytes))
	x.Counter("spdb_wal_fsyncs_total",
		"WAL fsyncs issued (group commit keeps this at or below records).", float64(ds.WAL.Syncs))
	x.Counter("spdb_wal_fsync_seconds_total",
		"Total time spent in WAL fsync.", ds.WAL.SyncTime.Seconds())
	x.Gauge("spdb_wal_size_bytes", "Current WAL length.", float64(ds.WAL.Size))
	x.Counter("spdb_wal_resets_total",
		"WAL truncations to empty (one per committed snapshot).", float64(ds.WAL.Resets))
	x.Counter("spdb_snapshot_writes_total", "Committed snapshot writes.", float64(ds.Snapshots))
	x.Counter("spdb_snapshot_skips_total",
		"Snapshot calls skipped because the graph version had not moved.", float64(ds.SnapshotSkips))
	x.Counter("spdb_snapshot_bytes_total",
		"Chunk bytes written by committed snapshots.", float64(ds.SnapshotBytes))
	x.Counter("spdb_snapshot_seconds_total",
		"Wall time spent writing snapshots.", ds.SnapshotTime.Seconds())
	x.Gauge("spdb_snapshot_last_version",
		"Graph version of the newest committed (or hydrated-from) snapshot.",
		float64(ds.LastSnapshotVersion))
	x.Counter("spdb_snapshot_gc_removed_total",
		"Superseded snapshot versions reclaimed by GC.", float64(ds.GCRemoved))
	x.Counter("spdb_snapshot_hydrations_total",
		"Engine hydrations from a snapshot.", float64(ds.Hydrations))
	x.Counter("spdb_snapshot_replayed_records_total",
		"WAL records replayed on top of hydrated snapshots.", float64(ds.ReplayedRecords))

	e.mu.RLock()
	nodes, edges, version, ix := e.nodes, e.edges, e.version, e.indexes
	e.mu.RUnlock()
	lblRows := 0
	if ix.lbl != nil {
		lblRows = ix.lbl.Rows()
	}
	x.Gauge("spdb_graph_nodes", "Loaded node count.", float64(nodes))
	x.Gauge("spdb_graph_edges", "Loaded edge count.", float64(edges))
	x.Gauge("spdb_graph_version", "Current (graph, index) generation.", float64(version))
	x.Gauge("spdb_seg_built", "1 while a SegTable index is valid.", b2f(ix.segBuilt))
	x.Gauge("spdb_oracle_valid", "1 while a landmark oracle is valid.", b2f(ix.orc != nil))
	x.Gauge("spdb_oracle_stale",
		"1 while a previously built oracle is invalidated and not rebuilt.", b2f(ix.orcStale))
	x.Gauge("spdb_labels_valid", "1 while a hub-label index is valid.", b2f(ix.lbl != nil))
	x.Gauge("spdb_labels_stale",
		"1 while a previously built hub-label index is invalidated and not rebuilt.", b2f(ix.lblStale))
	x.Gauge("spdb_label_rows", "Hub-label entries (TLabelOut + TLabelIn).", float64(lblRows))
	x.Gauge("spdb_index_builds_in_flight",
		"Index builds or graph loads running or queued (readiness gate).",
		float64(e.building.Load()))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
