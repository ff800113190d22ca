package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/heapfile"
	"repro/internal/rdb"
	"repro/internal/record"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/storage"
)

// The ladder times direct calls into each layer on synthetic input the
// benchmark builds itself. Every rung is the median of ladderReps timings.
// The calls it makes are the API later changes must keep compiling.

const ladderReps = 5

// rung runs f ladderReps times and returns the median of what it reports.
func (e *env) rung(f func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, ladderReps)
	for i := 0; i < ladderReps; i++ {
		if err := e.ctx.Err(); err != nil {
			return 0, err
		}
		v, err := f()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// perOp times n calls of op and returns nanoseconds per call.
func perOp(n int, op func(i int) error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := op(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / float64(n), nil
}

// scanAll walks an iterator to its end, checks it saw want rows, and returns
// nanoseconds per row.
func scanAll(it interface {
	Next() bool
	Err() error
}, want int) (float64, error) {
	t0 := time.Now()
	rows := 0
	for it.Next() {
		rows++
	}
	if err := it.Err(); err != nil {
		return 0, err
	}
	if rows != want {
		return 0, fmt.Errorf("scan saw %d of %d rows", rows, want)
	}
	return float64(time.Since(t0)) / float64(rows), nil
}

// ladder runs every rung and stores its metric.
func (e *env) ladder() error {
	for _, step := range []func() error{
		e.ladderStorage, e.ladderBTree, e.ladderHeapfile, e.ladderRecord,
		e.ladderStatements, e.ladderIndexes, e.ladderShard,
	} {
		if err := step(); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
	}
	return nil
}

// ladderStorage: a buffer-pool fetch that hits, and one that misses (a
// 64-frame pool cycling through a file of many more pages, so every fetch
// evicts a clean frame and reads from the file).
func (e *env) ladderStorage() error {
	n := e.sz.ladderKeys
	mem := storage.NewBufferPool(storage.NewMemDiskManager(0), 1024)
	var resident []storage.PageID
	for i := 0; i < 512; i++ {
		pg, err := mem.NewPage()
		if err != nil {
			return err
		}
		resident = append(resident, pg.ID())
		mem.Unpin(pg, true)
	}
	fetch := func(pool *storage.BufferPool, id storage.PageID) error {
		pg, err := pool.Fetch(id)
		if err != nil {
			return err
		}
		pool.Unpin(pg, false)
		return nil
	}
	hit, err := e.rung(func() (float64, error) {
		return perOp(n, func(i int) error { return fetch(mem, resident[i%len(resident)]) })
	})
	if err != nil {
		return err
	}
	e.metrics["storage.fetch_hit_ns"] = hit

	disk, err := storage.NewFileDiskManager(filepath.Join(e.workdir, "ladder.pages"), 0)
	if err != nil {
		return err
	}
	defer disk.Close()
	pool := storage.NewBufferPool(disk, 64)
	pages := e.sz.ladderPages
	ids := make([]storage.PageID, 0, pages)
	for i := 0; i < pages; i++ {
		pg, err := pool.NewPage()
		if err != nil {
			return err
		}
		pg.PutU64(64, uint64(i))
		ids = append(ids, pg.ID())
		pool.Unpin(pg, true)
	}
	if err := pool.FlushAll(); err != nil {
		return err
	}
	miss, err := e.rung(func() (float64, error) {
		before := pool.Stats().Misses
		ns, err := perOp(pages, func(i int) error { return fetch(pool, ids[i]) })
		if err != nil {
			return 0, err
		}
		if got := pool.Stats().Misses - before; got != uint64(pages) {
			return 0, fmt.Errorf("fetch_miss rung: %d of %d fetches missed", got, pages)
		}
		return ns / 1e3, nil
	})
	if err != nil {
		return err
	}
	e.metrics["storage.fetch_miss_us"] = miss
	return nil
}

// ladderData returns n distinct 8-byte keys in a seeded random order, and
// the 32-byte value (a four-int64 row) stored under each.
func (e *env) ladderData() (keys [][]byte, val []byte) {
	n := e.sz.ladderKeys
	keys = make([][]byte, n)
	for i, k := range rand.New(rand.NewSource(e.seed)).Perm(n) {
		keys[i] = binary.BigEndian.AppendUint64(nil, uint64(k))
	}
	return keys, make([]byte, 32)
}

func (e *env) ladderBTree() error {
	keys, val := e.ladderData()
	pool := storage.NewBufferPool(storage.NewMemDiskManager(0), 16384)
	var tree *btree.BTree
	ins, err := e.rung(func() (float64, error) {
		t, err := btree.New(pool)
		if err != nil {
			return 0, err
		}
		tree = t
		return perOp(len(keys), func(i int) error { return t.Insert(keys[i], val) })
	})
	if err != nil {
		return err
	}
	e.metrics["btree.insert_ns"] = ins

	before := pool.Stats()
	get, err := e.rung(func() (float64, error) {
		return perOp(len(keys), func(i int) error {
			_, ok, err := tree.Get(keys[i])
			if err == nil && !ok {
				err = fmt.Errorf("btree rung: key %d missing", i)
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	after := pool.Stats()
	e.metrics["btree.get_ns"] = get
	e.metrics["btree.pages_per_get"] = float64(after.Hits+after.Misses-before.Hits-before.Misses) / float64(ladderReps*len(keys))

	scan, err := e.rung(func() (float64, error) { return scanAll(tree.Scan(nil, nil), len(keys)) })
	if err != nil {
		return err
	}
	e.metrics["btree.scan_ns_per_row"] = scan
	return nil
}

func (e *env) ladderHeapfile() error {
	n := e.sz.ladderKeys
	tuple := make([]byte, 32)
	pool := storage.NewBufferPool(storage.NewMemDiskManager(0), 16384)
	var heap *heapfile.HeapFile
	ins, err := e.rung(func() (float64, error) {
		h, err := heapfile.New(pool)
		if err != nil {
			return 0, err
		}
		heap = h
		return perOp(n, func(int) error {
			_, err := h.Insert(tuple)
			return err
		})
	})
	if err != nil {
		return err
	}
	e.metrics["heapfile.insert_ns"] = ins
	scan, err := e.rung(func() (float64, error) { return scanAll(heap.Scan(), n) })
	if err != nil {
		return err
	}
	e.metrics["heapfile.scan_ns_per_row"] = scan
	return nil
}

func (e *env) ladderRecord() error {
	n := e.sz.ladderKeys
	schema := record.MustSchema(
		record.Column{Name: "nid", Type: record.TInt}, record.Column{Name: "d2s", Type: record.TInt},
		record.Column{Name: "p2s", Type: record.TInt}, record.Column{Name: "f", Type: record.TInt})
	row := record.Row{record.Int(4711), record.Int(1 << 40), record.Int(17), record.Int(2)}
	buf := make([]byte, 0, 64)
	enc, err := e.rung(func() (float64, error) {
		return perOp(n, func(int) error {
			var err error
			buf, err = record.EncodeTuple(buf[:0], schema, row)
			return err
		})
	})
	if err != nil {
		return err
	}
	e.metrics["record.encode_ns"] = enc
	dec, err := e.rung(func() (float64, error) {
		return perOp(n, func(int) error {
			_, _, err := record.DecodeTuple(buf, schema)
			return err
		})
	})
	if err != nil {
		return err
	}
	e.metrics["record.decode_ns"] = dec
	key := make([]byte, 0, 16)
	kenc, err := e.rung(func() (float64, error) {
		return perOp(n, func(i int) error {
			key = record.EncodeKey(key[:0], record.Int(int64(i)))
			return nil
		})
	})
	if err != nil {
		return err
	}
	e.metrics["record.key_encode_ns"] = kenc
	return nil
}

// The statement rungs run the paper's F, E and M operators, in the forms
// core issues them, over benchmark-owned tables shaped like TVisited and
// TEdges, at fixed frontier sizes.
const (
	sqlF = "UPDATE BVisited SET f = 2 WHERE f = 0 AND d2s = (SELECT MIN(d2s) FROM BVisited WHERE f = 0)"
	sqlE = "INSERT INTO BExpand (nid, par, cost) SELECT nid, par, cost FROM (" +
		"SELECT out.tid, q.nid, out.cost + q.d2s, " +
		"ROW_NUMBER() OVER (PARTITION BY out.tid ORDER BY out.cost + q.d2s) " +
		"FROM BVisited q, BEdges out WHERE q.nid = out.fid AND q.f = 2" +
		") tmp (nid, par, cost, rn) WHERE rn = 1"
	sqlM = "MERGE INTO BVisited AS target USING BExpand AS source ON (target.nid = source.nid) " +
		"WHEN MATCHED AND target.d2s > source.cost THEN UPDATE SET d2s = source.cost, p2s = source.par, f = 0 " +
		"WHEN NOT MATCHED THEN INSERT (nid, d2s, p2s, f, d2t, p2t, b) VALUES (source.nid, source.cost, source.par, 0, ?, ?, 1)"
	sqlMin     = "SELECT MIN(d2s) FROM BVisited WHERE f = 0"
	sqlPoint   = "SELECT d2s FROM BVisited WHERE nid = ?"
	sqlVisit   = "INSERT INTO BVisited (nid, d2s, p2s, f, d2t, p2t, b) VALUES (?, ?, ?, ?, ?, ?, 1)"
	sqlEdge    = "INSERT INTO BEdges (fid, tid, cost) VALUES (?, ?, ?)"
	sqlClearV  = "DELETE FROM BVisited"
	sqlClearX  = "DELETE FROM BExpand"
	settled    = 256  // rows of BVisited that are not frontier candidates
	ladderFan  = 3    // out-edges per node of BEdges
	ladderNode = 8192 // nodes of BEdges
)

var ladderSQL = []string{sqlF, sqlE, sqlM, sqlMin, sqlPoint, sqlVisit, sqlEdge, sqlClearV, sqlClearX}

func (e *env) ladderStatements() error {
	parse, err := e.rung(func() (float64, error) {
		ns, err := perOp(200*len(ladderSQL), func(i int) error {
			_, err := sql.Parse(ladderSQL[i%len(ladderSQL)])
			return err
		})
		return ns / 1e3, err
	})
	if err != nil {
		return err
	}
	e.metrics["sql.parse_us"] = parse

	db, err := rdb.Open(rdb.Options{BufferPoolPages: 16384})
	if err != nil {
		return err
	}
	defer db.Close()
	sess := db.Session()
	defer sess.Close()
	for _, ddl := range []string{
		"CREATE TABLE BEdges (fid INT, tid INT, cost INT)",
		"CREATE CLUSTERED INDEX bedges_fid ON BEdges (fid)",
		"CREATE TABLE BVisited (nid INT PRIMARY KEY, d2s INT, p2s INT, f INT, d2t INT, p2t INT, b INT)",
		"CREATE TABLE BExpand (nid INT PRIMARY KEY, par INT, cost INT)",
	} {
		if _, err := sess.Exec(ddl); err != nil {
			return fmt.Errorf("%s: %w", ddl, err)
		}
	}
	prep := map[string]*rdb.Stmt{}
	for _, text := range ladderSQL {
		st, err := sess.Prepare(text)
		if err != nil {
			return fmt.Errorf("prepare %q: %w", text, err)
		}
		prep[text] = st
	}
	for u := int64(0); u < ladderNode; u++ {
		for j := int64(1); j <= ladderFan; j++ {
			if _, err := prep[sqlEdge].Exec(u, (u*ladderFan+j*977)%ladderNode, 1+(u+j)%100); err != nil {
				return err
			}
		}
	}

	// reset leaves BVisited holding `frontier` candidates at the minimal
	// distance plus the settled rows, and BExpand empty.
	reset := func(frontier int) error {
		if _, err := prep[sqlClearV].Exec(); err != nil {
			return err
		}
		if _, err := prep[sqlClearX].Exec(); err != nil {
			return err
		}
		for i := 0; i < frontier+settled; i++ {
			d2s, f := int64(10), int64(0)
			if i >= frontier {
				d2s, f = 5, 1
			}
			if _, err := prep[sqlVisit].Exec(int64(i), d2s, core.NoParent, f, core.MaxDist, core.NoParent); err != nil {
				return err
			}
		}
		return nil
	}
	timed := func(text string, args ...any) (time.Duration, error) {
		t0 := time.Now()
		_, err := prep[text].Exec(args...)
		return time.Since(t0), err
	}
	for _, size := range []struct {
		name           string
		frontier, reps int
	}{{"n1", 1, 40}, {"n64", 64, 10}, {"n1024", 1024, 2}} {
		var fs, xs, mg []float64
		for rep := 0; rep < ladderReps; rep++ {
			var f, x, m time.Duration
			for c := 0; c < size.reps; c++ {
				if err := reset(size.frontier); err != nil {
					return err
				}
				df, err := timed(sqlF)
				if err != nil {
					return fmt.Errorf("F rung: %w", err)
				}
				dx, err := timed(sqlE)
				if err != nil {
					return fmt.Errorf("E rung: %w", err)
				}
				dm, err := timed(sqlM, core.MaxDist, core.NoParent)
				if err != nil {
					return fmt.Errorf("M rung: %w", err)
				}
				f, x, m = f+df, x+dx, m+dm
			}
			fs = append(fs, us(f)/float64(size.reps))
			xs = append(xs, us(x)/float64(size.reps))
			mg = append(mg, us(m)/float64(size.reps))
		}
		e.metrics["exec.f_select_us."+size.name] = median(fs)
		e.metrics["exec.e_expand_us."+size.name] = median(xs)
		e.metrics["exec.m_merge_us."+size.name] = median(mg)
	}

	if err := reset(64); err != nil {
		return err
	}
	probe, err := e.rung(func() (float64, error) {
		ns, err := perOp(2000, func(int) error {
			_, _, err := prep[sqlMin].QueryInt()
			return err
		})
		return ns / 1e3, err
	})
	if err != nil {
		return err
	}
	e.metrics["exec.min_probe_us"] = probe
	point, err := e.rung(func() (float64, error) {
		ns, err := perOp(2000, func(i int) error {
			_, _, err := prep[sqlPoint].QueryInt(int64(i % (64 + settled)))
			return err
		})
		return ns / 1e3, err
	})
	if err != nil {
		return err
	}
	e.metrics["rdb.point_select_us"] = point
	return nil
}

// ladderEngine loads the small ladder graph into a fresh in-memory engine.
func (e *env) ladderEngine(eo repro.EngineOptions) (*inputs, *repro.Engine, error) {
	in, err := newInputs(e.sz.ladderN, e.seed)
	if err != nil {
		return nil, nil, err
	}
	db, err := repro.Open(repro.DBOptions{BufferPoolPages: 16384})
	if err != nil {
		return nil, nil, err
	}
	eng := repro.NewEngine(db, eo)
	if err := eng.LoadGraph(in.mirror); err != nil {
		eng.Close()
		return nil, nil, err
	}
	return in, eng, nil
}

// msPerQuery asks every pair once through ask, checks the answers, and
// returns the mean latency in milliseconds.
func (e *env) msPerQuery(what string, in *inputs, pairs [][2]int64, alg core.Algorithm,
	ask func(core.QueryRequest) (core.QueryResult, error)) float64 {
	var total time.Duration
	for k, p := range pairs {
		t0 := time.Now()
		res, err := ask(core.QueryRequest{Source: p[0], Target: p[1], Alg: alg})
		total += time.Since(t0)
		e.check.answer("ladder "+what, k, in.mirror, p, res, err)
	}
	return ms(total) / float64(len(pairs))
}

// ladderIndexes prices the two indexes no workload builds: the landmark
// oracle (ALT) and the hub labels.
func (e *env) ladderIndexes() error {
	in, eng, err := e.ladderEngine(repro.EngineOptions{CacheSize: -1})
	if err != nil {
		return err
	}
	defer eng.Close()
	pairs := in.pairs(e.sz.ladderPairs)
	query := func(req core.QueryRequest) (core.QueryResult, error) { return eng.Query(e.ctx, req) }

	ost, err := eng.BuildOracleContext(e.ctx, repro.OracleConfig{K: 4})
	if err != nil {
		return fmt.Errorf("build oracle: %w", err)
	}
	e.metrics["oracle.build_s"] = ost.BuildTime.Seconds()
	e.metrics["oracle.alt_ms_per_query"] = e.msPerQuery("ALT", in, pairs, core.AlgALT, query)
	ls, err := eng.BuildLabelsContext(e.ctx)
	if err != nil {
		return fmt.Errorf("build labels: %w", err)
	}
	e.metrics["labels.build_s"] = ls.BuildTime.Seconds()
	e.metrics["labels.rows"] = float64(ls.RowsOut + ls.RowsIn)
	e.metrics["labels.query_us"] = 1e3 * e.msPerQuery("LABEL", in, pairs, core.AlgLabel, query)
	return nil
}

// ladderShard prices the sharded coordinator against the single engine on
// the same graph and pairs: k = 1 is pure coordinator overhead.
func (e *env) ladderShard() error {
	in, eng, err := e.ladderEngine(repro.EngineOptions{CacheSize: -1})
	if err != nil {
		return err
	}
	defer eng.Close()
	pairs := in.pairs(e.sz.ladderPairs)
	single := e.msPerQuery("single", in, pairs, core.AlgBSDJ,
		func(req core.QueryRequest) (core.QueryResult, error) { return eng.Query(e.ctx, req) })
	for _, k := range []int{1, 2} {
		se, err := shard.Open(in.mirror, shard.Options{Shards: k, BufferPoolPages: 16384})
		if err != nil {
			return fmt.Errorf("shard.Open k=%d: %w", k, err)
		}
		e.metrics[fmt.Sprintf("shard.k%d_ms_per_query", k)] = e.msPerQuery(fmt.Sprintf("shard k=%d", k), in, pairs, core.AlgBSDJ,
			func(req core.QueryRequest) (core.QueryResult, error) { return se.Query(e.ctx, req) })
		se.Close()
	}
	e.metrics["shard.k1_overhead_ratio"] = ratio(e.metrics["shard.k1_ms_per_query"], single)
	return nil
}

// opShares runs the ladder pairs once more on an engine that issues F, E and
// M as separate statements (Fig 6(c)), with the workload's algorithm, and
// reports each operator's share of their sum.
func (e *env) opShares(alg core.Algorithm) error {
	in, eng, err := e.ladderEngine(repro.EngineOptions{CacheSize: -1, SeparateOperators: true})
	if err != nil {
		return err
	}
	defer eng.Close()
	if alg == core.AlgBSEG {
		if _, err := eng.BuildSegTableContext(e.ctx, e.sz.lthd); err != nil {
			return err
		}
	}
	var f, x, m time.Duration
	for k, p := range in.pairs(e.sz.ladderPairs) {
		res, err := eng.Query(e.ctx, core.QueryRequest{Source: p[0], Target: p[1], Alg: alg})
		e.check.answer("ladder operators", k, in.mirror, p, res, err)
		if res.Stats != nil {
			f, x, m = f+res.Stats.FOp, x+res.Stats.EOp, m+res.Stats.MOp
		}
	}
	total := float64(f + x + m)
	e.metrics["core.f_op_share"] = ratio(float64(f), total)
	e.metrics["core.e_op_share"] = ratio(float64(x), total)
	e.metrics["core.m_op_share"] = ratio(float64(m), total)
	return nil
}
