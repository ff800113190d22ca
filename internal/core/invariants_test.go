package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rdb"
	"repro/internal/table"
)

// checkSegTable checks what Definition 4 and the writers promise of a built
// SegTable, reading the tables as they are:
//   - (fid, tid) is unique in TOutSegs;
//   - every TOutSegs.pid closes a predecessor chain: pid = fid on an edge
//     (fid, tid) of that cost, or the row (fid, pid) plus the edge
//     (pid, tid) sums to it;
//   - the (fid, tid, cost) rows TOutSegs yields through its tid index, the
//     backward search's access path, equal those of its rows, one for one.
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
	rows, err = e.DB().Query("SELECT fid, tid, pid, cost FROM " + TblOutSegs)
	if err != nil {
		return err
	}
	out := make(map[[2]int64]seg, rows.Len())
	for _, r := range rows.Data {
		k := [2]int64{r[0].I, r[1].I}
		if _, dup := out[k]; dup {
			return fmt.Errorf("%s: (fid, tid) = %v recorded more than once", TblOutSegs, k)
		}
		out[k] = seg{r[2].I, r[3].I}
	}
	if ix := segIndex(e); ix != nil {
		tbl, _ := e.db.Catalog().Get(TblOutSegs)
		var it table.Iterator
		n := 0
		for it.Seek(tbl, ix, nil, []bool{true, true, false, true}, nil); it.Next(); n++ {
			r := it.Row()
			if o, ok := out[[2]int64{r[0].I, r[1].I}]; !ok || o.cost != r[3].I {
				return fmt.Errorf("%s (%d, %d, cost %d) through %s: the row holds cost %d (present %v)", TblOutSegs, r[0].I, r[1].I, r[3].I, ix.Name, o.cost, ok)
			}
		}
		if err := it.Err(); err != nil || n != len(out) {
			return fmt.Errorf("%s yields %d rows through %s, %d in its rows (%v)", TblOutSegs, n, ix.Name, len(out), err)
		}
	}
	hop := func(a, b, cost int64) bool {
		w, ok := edges[[2]int64{a, b}]
		return ok && w == cost
	}
	for k, o := range out {
		fid, tid := k[0], k[1]
		pre, ok := out[[2]int64{fid, o.pid}]
		if !(o.pid == fid && hop(fid, tid, o.cost)) && !(ok && hop(o.pid, tid, o.cost-pre.cost)) {
			return fmt.Errorf("%s (%d, %d, cost %d): pid %d is no predecessor on a path of that cost", TblOutSegs, fid, tid, o.cost, o.pid)
		}
	}
	return nil
}

// segIndex returns TOutSegs' tid index, nil under NoIndex.
func segIndex(e *Engine) *table.Index {
	tbl, _ := e.db.Catalog().Get(TblOutSegs)
	for _, ix := range tbl.Secondary {
		if ix.Cols[0] == tbl.Schema.Ordinal("tid") {
			return ix
		}
	}
	return nil
}

// corruptSegIndex raises by one the cost of every entry of TOutSegs' tid
// index whose fid pick takes, written into the index tree alone (an entry
// is (tid, fid, cost) and its own key), and returns how many it changed.
func corruptSegIndex(t *testing.T, e *Engine, pick func(tid, fid int64) bool) int {
	tr := segIndex(e).Tree()
	var bad [][]byte
	for it := tr.Scan(nil, nil); it.Next(); {
		if ent := it.Value(); pick(int64(binary.LittleEndian.Uint64(ent)), int64(binary.LittleEndian.Uint64(ent[8:]))) {
			bad = append(bad, slices.Clone(ent))
		}
	}
	for _, ent := range bad {
		if ok, err := tr.Delete(ent); !ok || err != nil {
			t.Fatalf("delete of index entry %x: %v, %v", ent, ok, err)
		}
		binary.LittleEndian.PutUint64(ent[16:], binary.LittleEndian.Uint64(ent[16:])+1)
		if err := tr.Insert(ent, nil); err != nil {
			t.Fatal(err)
		}
	}
	return len(bad)
}

// TestCheckSegTableBites: a built SegTable passes, and each kind of damage
// the check names — a TOutSegs pid that closes no chain, one entry of its
// tid index whose cost differs from the row's, the costs of a node's
// entries, a pair recorded twice — fails it. Under CluIndex TOutSegs is
// keyed on the pair, which refuses the duplicate itself, so that damage is
// checked on NoIndex heaps, where nothing refuses it.
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
		{"mirror-cost", "one index entry of fid 0: cost + 1"},
		{"cost", "every index entry of fid 0: cost + 1"},
		{"duplicate", "INSERT INTO " + TblOutSegs + " (fid, tid, pid, cost) SELECT fid, tid, fid, cost FROM " + TblOutSegs + " WHERE fid = 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := build(t, ClusteredIndex)
			var err error
			switch tc.name {
			case "mirror-cost":
				first := int64(-1)
				if n := corruptSegIndex(t, e, func(tid, fid int64) bool {
					if fid == 0 && first < 0 {
						first = tid
					}
					return fid == 0 && tid == first
				}); n != 1 {
					t.Fatalf("%s changed %d entries, want 1", tc.damage, n)
				}
			case "cost":
				if n := corruptSegIndex(t, e, func(_, fid int64) bool { return fid == 0 }); n < 2 {
					t.Fatalf("%s changed %d entries, want several", tc.damage, n)
				}
			default:
				_, err = e.DB().Exec(tc.damage)
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
