package exec_test

import (
	"testing"

	"repro/internal/rdb"
)

// BenchmarkFEMStatement times the statements of one BSDJ iteration (§3,
// Algorithm 2) as core issues them, prepared, over benchmark-owned tables
// shaped like TVisited and TEdges: n frontier candidates at the minimal
// distance beside 256 settled rows, three out-edges per node — and, as
// n=8of1024, 8 candidates beside 1016 settled rows, which is what TVisited
// looks like for most of a search: nearly every row a scan passes fails its
// `f = 0` / `f = 2`, so that rung times the rejected row, where the n=1024
// rung (nearly every row matches) times the matched one. Each statement is
// timed alone, in the state the loop runs it in.
func BenchmarkFEMStatement(b *testing.B) {
	const (
		nodes   = 2048
		fSelect = "UPDATE v SET f = 2 WHERE f = 0 AND d2s = (SELECT MIN(d2s) FROM v WHERE f = 0)"
		eMerge  = "MERGE INTO v AS target USING (SELECT nid, par, cost FROM (" +
			"SELECT out.tid, q.nid, out.cost + q.d2s, ROW_NUMBER() OVER (PARTITION BY out.tid ORDER BY out.cost + q.d2s) " +
			"FROM v q, e out WHERE q.nid = out.fid AND q.f = 2) tmp (nid, par, cost, rn) WHERE rn = 1" +
			") AS source (nid, par, cost) ON (target.nid = source.nid) " +
			"WHEN MATCHED AND target.d2s > source.cost THEN UPDATE SET d2s = source.cost, p2s = source.par, f = 0 " +
			"WHEN NOT MATCHED THEN INSERT (nid, d2s, p2s, f, d2t, p2t, b) VALUES (source.nid, source.cost, source.par, 0, ?, ?, 1)"
		reset    = "UPDATE v SET f = 1 WHERE f = 2"
		minProbe = "SELECT MIN(d2s) FROM v WHERE f = 0"
	)
	db, err := rdb.Open(rdb.Options{BufferPoolPages: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	sess := db.Session()
	exec := func(q string, args ...any) {
		b.Helper()
		if _, err := sess.Exec(q, args...); err != nil {
			b.Fatalf("%s: %v", q, err)
		}
	}
	exec("CREATE TABLE e (fid INT, tid INT, cost INT)")
	exec("CREATE CLUSTERED INDEX e_fid ON e (fid)")
	exec("CREATE TABLE v (nid INT PRIMARY KEY, d2s INT, p2s INT, f INT, d2t INT, p2t INT, b INT)")
	for u := int64(0); u < nodes; u++ {
		for j := int64(1); j <= 3; j++ {
			exec("INSERT INTO e (fid, tid, cost) VALUES (?, ?, ?)", u, (u*3+j*977)%nodes, 1+(u+j)%100)
		}
	}
	// frontier leaves v holding n candidates at distance 10 and settled rows
	// at distance 5; selected marks the candidates as the frontier.
	frontier := func(n, settled int, selected bool) {
		exec("DELETE FROM v")
		for i := 0; i < n+settled; i++ {
			d2s, f := int64(10), int64(0)
			if i >= n {
				d2s, f = 5, 1
			}
			exec("INSERT INTO v (nid, d2s, p2s, f, d2t, p2t, b) VALUES (?, ?, ?, ?, ?, ?, 1)", int64(i), d2s, int64(-1), f, int64(1)<<40, int64(-1))
		}
		if selected {
			exec(fSelect)
		}
	}
	for _, size := range []struct {
		name       string
		n, settled int
	}{{"n=64", 64, 256}, {"n=1024", 1024, 256}, {"n=8of1024", 8, 1016}} {
		n := size.n
		for _, st := range []struct {
			name, text string
			selected   bool // runs after the F-select
			scans      int  // passes over v, all rows each, that are all it does; 0: more than scans
			args       []any
		}{
			{"f_select", fSelect, false, 2, nil},
			{"e_merge", eMerge, true, 0, []any{int64(1) << 40, int64(-1)}},
			{"reset", reset, true, 1, nil},
			{"min_probe", minProbe, false, 1, nil},
		} {
			b.Run(st.name+"/"+size.name, func(b *testing.B) {
				stmt, err := sess.Prepare(st.text)
				if err != nil {
					b.Fatal(err)
				}
				frontier(n, size.settled, st.selected)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if st.text == minProbe {
						if d, null, err := stmt.QueryInt(); err != nil || null || d != 10 {
							b.Fatalf("MIN probe: %d %v %v", d, null, err)
						}
						continue
					}
					if i > 0 { // the statement changed v: put the state back, untimed
						b.StopTimer()
						frontier(n, size.settled, st.selected)
						b.StartTimer()
					}
					// F-select and reset touch the n frontier rows; how many rows the
					// expansion merges depends on the edges.
					if res, err := stmt.Exec(st.args...); err != nil || res.RowsAffected < int64(n)/2 {
						b.Fatalf("%s: %d rows, %v", st.name, res.RowsAffected, err)
					}
				}
				if st.scans > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*st.scans*(n+size.settled)), "ns/row")
				}
			})
		}
	}
}
