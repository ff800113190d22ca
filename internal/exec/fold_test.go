package exec_test

// The fold battery. An aggregate without GROUP BY over a sequential scan
// with no residual, whose calls are COUNT(*) and MIN or MAX of a stored
// column or of a + of stored columns, runs on the pinned pages of the table
// (table.Table.Fold): no row is decoded or copied. These tests check its
// answers against a model computed in Go from Table.Scan()'s full decode, in
// the three physical designs, and that it fetches the pages the scan it
// replaces fetches.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/record"
)

const foldQ = "SELECT MIN(a), MAX(b), MIN(a + b), COUNT(*) FROM t"

// foldModel is foldQ over the stored rows that keep accepts: MIN(a + b)
// wraps as the engine's + does, and no row gives NULL, NULL, NULL, 0.
func foldModel(rows []record.Row, keep func(a, b, c int64) bool) []record.Row {
	null := record.Value{Null: true}
	out := record.Row{null, null, null, record.Int(0)}
	for _, r := range rows {
		a, b := r[1].I, r[2].I
		if !keep(a, b, r[3].I) {
			continue
		}
		if out[3].I == 0 {
			out[0], out[1], out[2] = r[1], r[2], record.Int(a+b)
		}
		out[0].I, out[1].I, out[2].I = min(out[0].I, a), max(out[1].I, b), min(out[2].I, a+b)
		out[3].I++
	}
	return []record.Row{out}
}

// newFoldDB returns a database holding t, in design d, with small values
// and, every 50th and 70th row, a and b whose sum wraps past MaxInt64 or
// MinInt64.
func newFoldDB(t *testing.T, d design) *battery {
	p := newPushDB(t, d, 1)
	p.exec("DELETE FROM t")
	rng := rand.New(rand.NewSource(38))
	for k := int64(0); k < pushRows; k++ {
		a, b, c := rng.Int63n(2001)-1000, rng.Int63n(2001)-1000, rng.Int63n(6)-2
		switch {
		case k%50 == 7:
			a, b = math.MaxInt64-rng.Int63n(100), 100+rng.Int63n(100)
		case k%70 == 3:
			a, b = math.MinInt64+rng.Int63n(100), -100-rng.Int63n(100)
		}
		p.exec("INSERT INTO t (k, a, b, c) VALUES (?, ?, ?, ?)", k, a, b, c)
	}
	return p
}

// fetches returns the pages the buffer pool has served so far.
func (p *battery) fetches() uint64 {
	s := p.db.Stats().Pool
	return s.Hits + s.Misses
}

// TestScanFold: the fold's answers equal the model's for pushed comparisons
// with literal and bound operands — the row with the wrapping sum among the
// rows they pass, no row passing, a NULL-bound operand — and it fetches the
// pages the row scan under the same WHERE does; one prepared statement run
// from two goroutines at once answers each of them right; and a truncated
// tuple fails it with the error the row scan reports.
func TestScanFold(t *testing.T) {
	cases := []struct {
		where string
		args  []any
		keep  func(a, b, c int64) bool
	}{
		{"", nil, func(a, b, c int64) bool { return true }},
		{" WHERE c = 1", nil, func(a, b, c int64) bool { return c == 1 }},
		{" WHERE c <> ? AND b >= ?", []any{int64(0), int64(-200)}, func(a, b, c int64) bool { return c != 0 && b >= -200 }},
		{" WHERE ? < a AND c <= 2", []any{int64(-500)}, func(a, b, c int64) bool { return -500 < a && c <= 2 }},
		{" WHERE c > 100", nil, func(a, b, c int64) bool { return false }},
		{" WHERE c = ?", []any{nil}, func(a, b, c int64) bool { return false }},
	}
	for _, d := range pushDesigns {
		t.Run(d.name, func(t *testing.T) {
			p := newFoldDB(t, d)
			rows := p.stored("t")
			if m := foldModel(rows, cases[0].keep)[0]; m[2].I >= m[0].I+m[1].I {
				t.Fatalf("no sum wraps: MIN(a + b) %d", m[2].I)
			}
			for _, c := range cases {
				before := p.fetches()
				p.expect(foldQ+c.where, c.args, foldModel(rows, c.keep))
				folded := p.fetches() - before
				before = p.fetches()
				if _, err := p.sess.Query("SELECT k FROM t"+c.where, c.args...); err != nil {
					t.Fatal(err)
				}
				if scanned := p.fetches() - before; folded != scanned {
					t.Errorf("%s: the fold fetched %d pages, the scan %d", c.where, folded, scanned)
				}
			}

			st, err := p.db.Prepare(foldQ + cases[2].where)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := int64(0); w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int64(0); i < 20; i++ {
						cv, bv := (i+w)%4-2, i*50-500
						res, err := st.Query(cv, bv)
						if err != nil {
							t.Error(err)
							return
						}
						want := foldModel(rows, func(a, b, c int64) bool { return c != cv && b >= bv })
						if got := fmt.Sprint(res.Data); got != fmt.Sprint(want) {
							t.Errorf("c <> %d AND b >= %d: got %s, want %s", cv, bv, got, fmt.Sprint(want))
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}

	// A truncated tuple, whether or not the predicates pass its row.
	p := newFoldDB(t, pushDesigns[0])
	tb, _ := p.db.Catalog().Get("t")
	it := tb.Scan()
	for it.Next() && it.Row()[0].I != 300 {
	}
	tree, key := tb.Clustered().Tree(), it.Loc().Key
	tuple, _, err := tree.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Put(key, tuple[:len(tuple)-3]); err != nil {
		t.Fatal(err)
	}
	// The error names the statement after its cause.
	cause := func(err error) string { s, _, _ := strings.Cut(fmt.Sprint(err), "\n"); return s }
	_, scanErr := p.sess.Query("SELECT a FROM t")
	if scanErr == nil || !strings.Contains(cause(scanErr), "malformed") {
		t.Fatalf("the row scan over a truncated tuple: %v", scanErr)
	}
	for _, c := range cases[:5] {
		if res, err := p.sess.Query(foldQ+c.where, c.args...); err == nil || cause(err) != cause(scanErr) {
			t.Errorf("%s over a truncated tuple: %v, error %v; want %v", c.where, res, err, scanErr)
		}
	}
}
