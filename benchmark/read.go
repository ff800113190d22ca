package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/rdb"
	"repro/internal/storage"
)

// readConfig describes one of the two read-only engine workloads.
type readConfig struct {
	n     int64
	pool  int  // buffer-pool pages
	file  bool // file-backed database in the run's work directory
	lthd  int64
	alg   core.Algorithm
	pairs int
}

func hotBSDJ(sz sizes) readConfig {
	// 16384 pages hold the whole database many times over: no query misses.
	return readConfig{n: sz.hotN, pool: 16384, alg: core.AlgBSDJ, pairs: sz.hotPairs}
}

func coldBSEG(sz sizes) readConfig {
	return readConfig{n: sz.coldN, pool: sz.coldPool, file: true, lthd: sz.lthd, alg: core.AlgBSEG, pairs: sz.coldPairs}
}

// engineSetup is a loaded engine and what loading it cost.
type engineSetup struct {
	in       *inputs
	db       *repro.DB
	eng      *repro.Engine
	setup    time.Duration
	load     time.Duration
	segBuild time.Duration
	segRows  int
}

// setupEngine generates the graph, loads it and builds the SegTable when
// lthd > 0. All of it is the workload's set-up time.
func (e *env) setupEngine(n int64, dbo repro.DBOptions, eo repro.EngineOptions, lthd int64) (*engineSetup, error) {
	t0 := time.Now()
	in, err := newInputs(n, e.seed)
	if err != nil {
		return nil, err
	}
	db, err := repro.Open(dbo)
	if err != nil {
		return nil, fmt.Errorf("open database: %w", err)
	}
	es := &engineSetup{in: in, db: db, eng: repro.NewEngine(db, eo)}
	t1 := time.Now()
	if err := es.eng.LoadGraph(in.mirror); err != nil {
		db.Close()
		return nil, fmt.Errorf("load graph: %w", err)
	}
	es.load = time.Since(t1)
	if lthd > 0 {
		st, err := es.eng.BuildSegTableContext(e.ctx, lthd)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("build SegTable: %w", err)
		}
		es.segBuild = st.BuildTime
		es.segRows = st.OutSegs + st.InSegs
	}
	es.setup = time.Since(t0)
	return es, nil
}

func (e *env) setupMetrics(es *engineSetup) {
	e.setupDone(es.setup)
	e.metrics["core.load_graph_s"] = es.load.Seconds()
	e.metrics["core.segtable_build_s"] = es.segBuild.Seconds()
	e.metrics["core.segtable_rows"] = float64(es.segRows)
}

// storedBytesPerEdge is the space the database (plus extra bytes such as a
// WAL and snapshots) takes per live edge.
func storedBytesPerEdge(db *repro.DB, extra int64, edges int) float64 {
	pages := db.Pool().Disk().NumPages()
	return float64(int64(pages)*storage.PageSize+extra) / float64(edges)
}

// runRead is hot_bsdj and cold_bseg: one client asking one pair after another
// of a freshly loaded engine with the path cache off.
func (e *env) runRead(cfg readConfig, setupOnly bool) error {
	dbo := repro.DBOptions{BufferPoolPages: cfg.pool}
	if cfg.file {
		dir, err := e.tempDir("db")
		if err != nil {
			return err
		}
		dbo.Path = filepath.Join(dir, "graph.db")
	}
	es, err := e.setupEngine(cfg.n, dbo, repro.EngineOptions{CacheSize: -1}, cfg.lthd)
	if err != nil {
		return err
	}
	defer es.eng.Close()
	e.setupMetrics(es)
	if setupOnly {
		return nil
	}
	in, eng, db := es.in, es.eng, es.db

	req := func(p [2]int64) repro.QueryRequest {
		return repro.QueryRequest{Source: p[0], Target: p[1], Alg: cfg.alg}
	}
	e.warmUp(in, func(p [2]int64) (repro.QueryResult, error) { return eng.Query(e.ctx, req(p)) })

	var (
		pairs        = in.pairs(cfg.pairs)
		times, fixed queryAgg
		dbStart      = db.Stats()
		dbFixed      rdb.Stats
		lagTotal     time.Duration
		root         = e.beginTrace()
	)
	passes, err := e.runPasses(func(i int, traced bool) (passStat, error) {
		st := passStat{queries: len(pairs), latMS: make([]float64, len(pairs))}
		results := make([]repro.QueryResult, len(pairs))
		errs := make([]error, len(pairs))
		var agg queryAgg
		wall0, cpu0 := time.Now(), cpuSelf()
		for k, p := range pairs {
			res, d, err := e.ask(eng, req(p), &agg, traced, root, i*len(pairs)+k)
			results[k], errs[k] = res, err
			st.busy += d
			st.latMS[k] = ms(d)
			e.cal.tick(2)
			if i < e.sz.fixed {
				e.sampleRSS(0)
			}
		}
		st.cpu = cpuSelf() - cpu0 - e.cal.cpu
		lagTotal += time.Since(wall0) - st.busy - e.cal.wall
		for k, p := range pairs {
			e.check.answer(e.name, i*len(pairs)+k, in.mirror, p, results[k], errs[k])
		}
		times.merge(agg)
		if i < e.sz.fixed {
			fixed.merge(agg)
			if i == e.sz.fixed-1 {
				dbFixed = db.Stats()
				e.metrics["stored_bytes_per_edge"] = storedBytesPerEdge(db, 0, in.mirror.M())
				if err := e.memory(0); err != nil {
					return st, err
				}
			}
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	e.endTrace(root)

	e.timing(passes)
	e.dbCounts(dbStart, dbFixed, fixed.queries)
	e.engineMetrics(eng, times, fixed, lagTotal)
	e.metrics["core.cache_invalidations"] = float64(eng.CacheStats().Invalidations)
	if e.trace {
		e.mdjBaseline(in.mirror, pairs)
	}
	return nil
}
