package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/rdb"
	"repro/internal/table"
)

// checkSegTable checks what Definition 4 and the writers promise of a built
// SegTable, reading the tables as they are:
//   - (fid, tid) is unique in each;
//   - every TOutSegs.pid closes a predecessor chain: pid = fid on an edge
//     (fid, tid) of that cost, or the row (fid, pid) plus the edge
//     (pid, tid) sums to it;
//   - TInSegs equals TOutSegs on (fid, tid, cost), row for row.
//
// It returns the first violation. It takes no *testing.T, so an engine-wide
// invariant check can call it as it is.
func (e *Engine) checkSegTable() error {
	edges := map[[2]int64]int64{} // the minimal cost per edge pair
	rows, err := e.DB().Query("SELECT fid, tid, cost FROM " + TblEdges)
	if err != nil {
		return err
	}
	for _, r := range rows.Data {
		k := [2]int64{r[0].I, r[1].I}
		if w, ok := edges[k]; !ok || r[2].I < w {
			edges[k] = r[2].I
		}
	}
	type seg struct{ pid, cost int64 }
	read := func(tbl, cols string) (map[[2]int64]seg, error) {
		rows, err := e.DB().Query("SELECT " + cols + " FROM " + tbl)
		if err != nil {
			return nil, err
		}
		out := make(map[[2]int64]seg, rows.Len())
		for _, r := range rows.Data {
			k := [2]int64{r[0].I, r[1].I}
			if _, dup := out[k]; dup {
				return nil, fmt.Errorf("%s: (fid, tid) = %v recorded more than once", tbl, k)
			}
			out[k] = seg{r[2].I, r[len(r)-1].I}
		}
		return out, nil
	}
	out, err := read(TblOutSegs, "fid, tid, pid, cost")
	if err != nil {
		return err
	}
	in, err := read(TblInSegs, "fid, tid, cost")
	if err != nil {
		return err
	}
	if len(out) != len(in) {
		return fmt.Errorf("%s has %d rows, %s %d", TblOutSegs, len(out), TblInSegs, len(in))
	}
	hop := func(a, b, cost int64) bool {
		w, ok := edges[[2]int64{a, b}]
		return ok && w == cost
	}
	for k, o := range out {
		fid, tid := k[0], k[1]
		if i, ok := in[k]; !ok || i.cost != o.cost {
			return fmt.Errorf("(%d, %d): cost %d in %s, %d in %s (present %v)", fid, tid, o.cost, TblOutSegs, i.cost, TblInSegs, ok)
		}
		pre, ok := out[[2]int64{fid, o.pid}]
		if !(o.pid == fid && hop(fid, tid, o.cost)) && !(ok && hop(o.pid, tid, o.cost-pre.cost)) {
			return fmt.Errorf("%s (%d, %d, cost %d): pid %d is no predecessor on a path of that cost", TblOutSegs, fid, tid, o.cost, o.pid)
		}
	}
	return nil
}

// TestCheckSegTableBites: a built SegTable passes, and each kind of damage
// the check names — a TOutSegs pid that closes no chain, one TInSegs cost
// that differs from TOutSegs', the costs of a node's TInSegs rows, a pair
// recorded twice — fails it. Under CluIndex the
// tables are keyed on the pair, which refuses the duplicate itself, so that
// damage is checked on NoIndex heaps, where nothing refuses it.
func TestCheckSegTableBites(t *testing.T) {
	g := graph.Power(200, 3, 5)
	build := func(t *testing.T, strategy IndexStrategy) *Engine {
		e := newTestEngine(t, g, rdb.Options{}, Options{Strategy: strategy})
		if _, err := e.BuildSegTable(20); err != nil {
			t.Fatal(err)
		}
		if err := e.checkSegTable(); err != nil {
			t.Fatalf("fresh build under %v: %v", strategy, err)
		}
		return e
	}
	for _, tc := range []struct {
		name, damage string
	}{
		{"out-pid", "UPDATE " + TblOutSegs + " SET pid = tid"},
		{"mirror-cost", "UPDATE " + TblInSegs + " SET cost = cost + 1 WHERE fid = 0 AND tid = (SELECT MIN(tid) FROM " + TblInSegs + " WHERE fid = 0)"},
		{"cost", "UPDATE " + TblInSegs + " SET cost = cost + 1 WHERE fid = 0"},
		{"duplicate", "INSERT INTO " + TblOutSegs + " (fid, tid, pid, cost) SELECT fid, tid, fid, cost FROM " + TblInSegs + " WHERE fid = 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := build(t, ClusteredIndex)
			res, err := e.DB().Exec(tc.damage)
			if tc.name == "mirror-cost" && err == nil && res.RowsAffected != 1 {
				t.Fatalf("%s changed %d rows, want 1", tc.damage, res.RowsAffected)
			}
			if tc.name == "duplicate" {
				if !errors.Is(err, table.ErrUniqueViolation) {
					t.Fatalf("%s under CluIndex: %v, want %v", tc.damage, err, table.ErrUniqueViolation)
				}
				e = build(t, NoIndex)
				_, err = e.DB().Exec(tc.damage)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := e.checkSegTable(); err == nil {
				t.Fatalf("%s: the check passed", tc.damage)
			} else {
				t.Log(err)
			}
		})
	}
}
