package rdb

import (
	"maps"
	"slices"
	"strconv"

	"repro/internal/obs"
	"repro/internal/storage"
)

// CollectMetrics implements obs.Collector: the storage-tier families of the
// /metrics page — statement throughput, plan cache, buffer pool (pool-wide
// and per shard), and physical I/O. Everything reads the same atomics that
// Stats() snapshots; a scrape costs one latch round per pool shard and
// nothing on the statement hot path.
func (db *DB) CollectMetrics(x *obs.Exporter) {
	st := db.Stats()

	x.Counter("spdb_sql_statements_total",
		"SQL statements executed (all sessions).", float64(st.Statements))
	x.Counter("spdb_sql_session_statements_total",
		"Statements issued through Session handles.", float64(st.SessionStatements))
	x.Counter("spdb_sql_parse_plan_seconds_total",
		"Cumulative parse+compile time (plan-cache misses only).", st.ParsePlanDur.Seconds())
	x.Counter("spdb_sql_exec_seconds_total",
		"Cumulative statement execution time.", st.ExecDur.Seconds())
	x.Counter("spdb_sessions_opened_total",
		"Session handles created since open.", float64(st.SessionsOpened))
	x.Gauge("spdb_sessions_active", "Session handles not yet closed.",
		float64(st.ActiveSessions))

	x.Counter("spdb_plan_cache_hits_total",
		"Statements that reused a compiled plan.", float64(st.PlanCacheHits))
	x.Counter("spdb_plan_cache_misses_total",
		"Statements that had to parse and compile.", float64(st.PlanCacheMisses))
	x.Counter("spdb_plan_cache_invalidations_total",
		"Cached plans discarded after a DDL schema-epoch bump.",
		float64(st.PlanCacheInvalidations))
	x.Gauge("spdb_plan_cache_entries", "Live plan cache entries.",
		float64(st.PlanCacheEntries))
	x.Counter("spdb_schema_epoch",
		"Catalog generation (bumped by every DDL statement).", float64(st.SchemaEpoch))

	// Pool-wide sums, then one labeled series per latch domain: a hot shard
	// (one page-id residue class absorbing the traffic) is invisible in the
	// sums but obvious side by side.
	pool := db.Pool()
	x.Gauge("spdb_bufferpool_capacity_pages", "Total frames across shards.",
		float64(pool.Capacity()))
	x.Gauge("spdb_bufferpool_shards", "Buffer pool latch domains.",
		float64(pool.Shards()))
	// Family-major order: the exposition format wants each family's series
	// consecutive, so iterate families outermost and shards inside.
	shards := pool.ShardStats()
	perShard := func(name, help string, get func(storage.PoolStats) uint64) {
		for i, ps := range shards {
			x.Counter(name, help, float64(get(ps)), obs.L("shard", strconv.Itoa(i)))
		}
	}
	perShard("spdb_bufferpool_hits_total",
		"Fetches answered from a resident frame, by shard.",
		func(ps storage.PoolStats) uint64 { return ps.Hits })
	perShard("spdb_bufferpool_misses_total",
		"Fetches that issued a physical read, by shard.",
		func(ps storage.PoolStats) uint64 { return ps.Misses })
	perShard("spdb_bufferpool_evictions_total",
		"Frames reclaimed by the clock sweep, by shard.",
		func(ps storage.PoolStats) uint64 { return ps.Evictions })
	perShard("spdb_bufferpool_flushes_total",
		"Dirty pages written back, by shard.",
		func(ps storage.PoolStats) uint64 { return ps.Flushes })
	perShard("spdb_bufferpool_fence_waits_total",
		"Fetches that parked on an in-flight victim write-back, by shard.",
		func(ps storage.PoolStats) uint64 { return ps.FenceWaits })

	// One family for the traffic by relation: each relation's series are
	// consecutive, in name order.
	names := slices.Sorted(maps.Keys(st.Relations))
	for _, name := range names {
		c := st.Relations[name]
		for _, ev := range []struct {
			name string
			n    uint64
		}{{"fetch", c.Fetches}, {"miss", c.Misses}, {"flush", c.Flushes}} {
			x.Counter("spdb_relation_pages_total",
				"Buffer pool page traffic charged to the relation holding the page, by event (fetch, miss, flush).",
				float64(ev.n), obs.L("relation", name), obs.L("event", ev.name))
		}
	}

	x.Gauge("spdb_bufferpool_free_pages",
		"Page ids on the free list, waiting for NewPage.", float64(st.Pool.Free))
	x.Counter("spdb_bufferpool_recycled_total",
		"New pages served from the free list instead of extending the file.", float64(st.Pool.Recycled))

	x.Counter("spdb_disk_reads_total", "Physical page reads of the database file.", float64(st.IO.Reads))
	x.Counter("spdb_disk_writes_total", "Physical page writes of the database file.", float64(st.IO.Writes))
	x.Counter("spdb_disk_allocs_total", "Pages the file was extended by.", float64(st.IO.Allocs))
	x.Counter("spdb_disk_read_delay_seconds_total",
		"Simulated I/O latency charged to reads.", st.IO.ReadDelay.Seconds())
	x.Counter("spdb_disk_write_delay_seconds_total",
		"Simulated I/O latency charged to writes.", st.IO.WriteDelay.Seconds())

	x.Gauge("spdb_temp_pages", "Pages the temp space (TEMPORARY tables) has allocated.", float64(st.Temp.Pages))
	x.Counter("spdb_temp_disk_reads_total", "Physical page reads of the temp space.", float64(st.Temp.IO.Reads))
	x.Counter("spdb_temp_disk_writes_total", "Physical page writes of the temp space.", float64(st.Temp.IO.Writes))
}
