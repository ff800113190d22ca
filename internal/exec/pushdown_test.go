package exec_test

// The pushed-predicate battery. A scan evaluates `col <cmp> operand` on the
// encoded tuple, before anything is decoded, with the operand bound once per
// Open; these tests check what such scans return against a model computed in
// Go from Table.Scan()'s full decode, on random tables in the three physical
// designs, for every operator, both operand orders and every kind of operand —
// NULL among them, which a `?`, a `? * ?` or a subquery over no row yields
// though no stored column holds it — each statement executed several times
// with different bindings so that the recycled operator instances re-bind.
// They go through rdb sessions, like the row-lifetime battery beside them.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdb"
	"repro/internal/record"
)

const pushRows = 600 // several heap pages and clustered leaves

var pushDesigns = []design{
	{"clustered", []string{"CREATE TABLE t (k INT PRIMARY KEY, a INT, b INT, c INT)"}},
	{"heap_index", []string{"CREATE TABLE t (k INT, a INT, b INT, c INT)",
		"CREATE UNIQUE INDEX t_k ON t (k)", "CREATE INDEX t_a ON t (a)"}},
	{"heap", []string{"CREATE TABLE t (k INT, a INT, b INT, c INT)"}},
}

// newPushDB returns a battery database (its model unused: these tests read
// theirs from the stored table) holding t — k distinct, a, b and c small
// values — and the six-row outer table o (x with a repeat, y distinct).
func newPushDB(t *testing.T, d design, seed int64) *battery {
	t.Helper()
	db, err := rdb.Open(rdb.Options{BufferPoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	p := &battery{t: t, db: db, sess: db.Session()}
	for _, q := range d.ddl {
		p.exec(q)
	}
	rng := rand.New(rand.NewSource(seed))
	small := func() int64 { return int64(rng.Intn(6) - 2) }
	for k := int64(0); k < pushRows; k++ {
		p.exec("INSERT INTO t (k, a, b, c) VALUES (?, ?, ?, ?)", k, small(), small(), small())
	}
	p.exec("CREATE TABLE o (x INT, y INT)")
	for y, x := range []int64{-1, 0, 2, 1, 3, 1} {
		p.exec("INSERT INTO o (x, y) VALUES (?, ?)", x, int64(y))
	}
	return p
}

// stored returns a table's rows as Table.Scan's full decode sees them.
func (p *battery) stored(name string) []record.Row {
	p.t.Helper()
	tb, ok := p.db.Catalog().Get(name)
	if !ok {
		p.t.Fatalf("no table %s", name)
	}
	var out []record.Row
	it := tb.Scan()
	for it.Next() {
		out = append(out, it.Row().Clone())
	}
	if err := it.Err(); err != nil {
		p.t.Fatal(err)
	}
	return out
}

// canon renders a result as sorted lines, so that results compare whatever
// order the design's scan produced them in.
func canon(rows []record.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = fmt.Sprint(r)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// expect runs q and compares its rows with want.
func (p *battery) expect(q string, args []any, want []record.Row) {
	p.t.Helper()
	rows, err := p.sess.Query(q, args...)
	if err != nil {
		p.t.Fatalf("%s %v: %v", q, args, err)
	}
	if got, w := canon(rows.Data), canon(want); got != w {
		p.t.Fatalf("%s %v:\n got %d rows\n%s\nwant %d rows\n%s", q, args, len(rows.Data), got, len(want), w)
	}
}

// holds is the comparison l <op> r under the engine's NULL rule: UNKNOWN
// behaves as FALSE.
func holds(op string, l, r record.Value) bool {
	if l.Null || r.Null {
		return false
	}
	switch op {
	case "=":
		return l.I == r.I
	case "<>":
		return l.I != r.I
	case "<":
		return l.I < r.I
	case "<=":
		return l.I <= r.I
	case ">":
		return l.I > r.I
	}
	return l.I >= r.I
}

func value(a any) record.Value {
	if a == nil {
		return record.Value{Null: true}
	}
	return record.Int(a.(int64))
}

var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

// TestPushedPredicateDifferential: every operator, both operand orders, on b
// and c (at 16 and 24 bytes into the tuple), against operands of every
// pushable kind.
func TestPushedPredicateDifferential(t *testing.T) {
	const (
		colK = iota
		colA
		colB
		colC
	)
	for di, d := range pushDesigns {
		t.Run(d.name, func(t *testing.T) {
			p := newPushDB(t, d, int64(11+di))
			tRows, oRows := p.stored("t"), p.stored("o")
			minX := oRows[0][0]
			for _, o := range oRows {
				if o[0].I < minX.I {
					minX = o[0]
				}
			}
			// keys returns the k of every row of t whose column col satisfies
			// the comparison with operand, written in the given order, and
			// extra.
			keys := func(col int, op string, colLeft bool, operand record.Value, extra func(record.Row) bool) []record.Row {
				var out []record.Row
				for _, r := range tRows {
					l, rr := r[col], operand
					if !colLeft {
						l, rr = rr, l
					}
					if holds(op, l, rr) && (extra == nil || extra(r)) {
						out = append(out, record.Row{r[colK]})
					}
				}
				return out
			}
			for _, col := range []struct {
				name string
				ord  int
			}{{"b", colB}, {"c", colC}} {
				for _, op := range cmpOps {
					for _, colLeft := range []bool{true, false} {
						cond := func(operand string) string {
							if colLeft {
								return col.name + " " + op + " " + operand
							}
							return operand + " " + op + " " + col.name
						}
						sel := func(operand string) string { return "SELECT k FROM t WHERE " + cond(operand) }

						p.expect(sel("1"), nil, keys(col.ord, op, colLeft, record.Int(1), nil))
						// `?`, a NULL between two values: the empty state must not stick.
						for _, arg := range []any{int64(2), nil, int64(-1)} {
							p.expect(sel("?"), []any{arg}, keys(col.ord, op, colLeft, value(arg), nil))
						}
						for _, args := range [][]any{{int64(2), int64(-1)}, {int64(1), int64(1)}, {nil, int64(1)}} {
							prod := record.Value{Null: true}
							if args[0] != nil {
								prod = record.Int(args[0].(int64) * args[1].(int64))
							}
							p.expect(sel("? * ?"), args, keys(col.ord, op, colLeft, prod, nil))
						}
						for rep := 0; rep < 2; rep++ {
							p.expect(sel("(SELECT MIN(x) FROM o)"), nil, keys(col.ord, op, colLeft, minX, nil))
							p.expect(sel("(SELECT MIN(x) FROM o WHERE y > 100)"), nil, nil) // NULL: no row of o
						}
						// Beside an index probe (the heap_index design has one on a,
						// the clustered one on k), and beside a conjunct that stays
						// in the residual.
						for _, arg := range []any{int64(0), nil, int64(2)} {
							p.expect("SELECT k FROM t WHERE a = ? AND "+cond("?"), []any{arg, int64(1)},
								keys(col.ord, op, colLeft, record.Int(1), func(r record.Row) bool { return holds("=", r[colA], value(arg)) }))
						}
						p.expect("SELECT k FROM t WHERE k = ? AND "+cond("?"), []any{int64(17), int64(0)},
							keys(col.ord, op, colLeft, record.Int(0), func(r record.Row) bool { return r[colK].I == 17 }))
						p.expect("SELECT k FROM t WHERE "+cond("?")+" AND a + 0 < b", []any{int64(0)},
							keys(col.ord, op, colLeft, record.Int(0), func(r record.Row) bool { return holds("<", r[colA], r[colB]) }))

						// An outer row's column: the inner of a nested-loop join
						// re-binds per outer row; so does a correlated EXISTS.
						var pairs, probed, exists []record.Row
						for _, o := range oRows {
							ks := keys(col.ord, op, colLeft, o[0], nil)
							for _, k := range ks {
								pairs = append(pairs, record.Row{o[1], k[0]})
							}
							for _, k := range keys(col.ord, op, colLeft, o[0], func(r record.Row) bool { return holds("=", r[colA], o[1]) }) {
								probed = append(probed, record.Row{o[1], k[0]})
							}
							if len(ks) > 0 {
								exists = append(exists, record.Row{o[1]})
							}
						}
						tc := func(operand string) string { // the same condition, qualified
							if colLeft {
								return "t." + col.name + " " + op + " " + operand
							}
							return operand + " " + op + " t." + col.name
						}
						for rep := 0; rep < 2; rep++ {
							p.expect("SELECT o.y, t.k FROM o, t WHERE "+tc("o.x"), nil, pairs)
							p.expect("SELECT o.y, t.k FROM o, t WHERE t.a = o.y AND "+tc("o.x"), nil, probed)
							p.expect("SELECT o.y FROM o WHERE EXISTS (SELECT k FROM t WHERE "+tc("o.x")+")", nil, exists)
						}
					}
				}
			}
		})
	}
}

// TestPushedPredicateStatementsSeeTheTableAsItWas: an UPDATE that sets the
// column its pushed predicate reads (the F-select's shape), a DELETE, and a
// MERGE whose source scans its own target under a pushed predicate all work
// on the rows that matched before the statement changed anything.
func TestPushedPredicateStatementsSeeTheTableAsItWas(t *testing.T) {
	for di, d := range pushDesigns {
		t.Run(d.name, func(t *testing.T) {
			p := newPushDB(t, d, int64(23+di))
			model := p.stored("t")
			check := func(when string) {
				t.Helper()
				if got, want := canon(p.stored("t")), canon(model); got != want {
					t.Fatalf("%s: table differs from the model\n got\n%s\nwant\n%s", when, got, want)
				}
				// The indexes still lead to every row.
				for _, r := range model {
					p.expect("SELECT k, a, b, c FROM t WHERE k = ?", []any{r[0].I}, []record.Row{r})
				}
			}
			// c = 0 -> 2 -> 0 -> 2: the statement's own writes satisfy neither
			// its predicate (0 -> 2) nor escape it, and the second round runs
			// recycled instances.
			for rep := 0; rep < 2; rep++ {
				for _, step := range [][2]int64{{0, 2}, {2, 0}} {
					var want int64
					for _, r := range model {
						if holds("=", r[3], record.Int(step[0])) {
							r[3] = record.Int(step[1])
							want++
						}
					}
					q := fmt.Sprintf("UPDATE t SET c = %d WHERE c = %d", step[1], step[0])
					if n := p.exec(q); n != want || want == 0 {
						t.Fatalf("%s affected %d rows, want %d", q, n, want)
					}
					check(q)
				}
			}
			// SET c = c + 1 WHERE c < ?: a row moved under the bound by an
			// earlier row's update would be counted twice.
			var want int64
			for _, r := range model {
				if holds("<", r[3], record.Int(2)) {
					r[3].I++
					want++
				}
			}
			if n := p.exec("UPDATE t SET c = c + 1 WHERE c < ?", int64(2)); n != want {
				t.Fatalf("UPDATE c = c + 1 affected %d rows, want %d", n, want)
			}
			check("UPDATE c = c + 1")

			// The source reads t WHERE b = 1 and the merge sets b = 1 on, or
			// inserts with b = 1, the rows shift keys further on.
			const shift = pushRows - 40
			for rep := 0; rep < 2; rep++ {
				var src []record.Row
				for _, r := range model {
					if holds("=", r[2], record.Int(1)) {
						src = append(src, r.Clone())
					}
				}
				for _, s := range src {
					k, found := s[0].I+shift, false
					for _, r := range model {
						if r[0].I == k {
							r[2], found = record.Int(1), true
						}
					}
					if !found {
						model = append(model, record.Row{record.Int(k), s[1], record.Int(1), s[3]})
					}
				}
				n := p.exec("MERGE INTO t AS tt USING (SELECT k + ?, a, c FROM t WHERE b = 1) AS ss (k, a, c) "+
					"ON (tt.k = ss.k) WHEN MATCHED THEN UPDATE SET b = 1 "+
					"WHEN NOT MATCHED THEN INSERT (k, a, b, c) VALUES (ss.k, ss.a, 1, ss.c)", int64(shift))
				if n != int64(len(src)) || n == 0 {
					t.Fatalf("rep %d: MERGE affected %d rows, want %d", rep, n, len(src))
				}
				check("MERGE")
			}

			kept := model[:0]
			want = 0
			for _, r := range model {
				if holds(">=", r[1], record.Int(2)) {
					want++
				} else {
					kept = append(kept, r)
				}
			}
			model = kept
			if n := p.exec("DELETE FROM t WHERE a >= ?", int64(2)); n != want || want == 0 {
				t.Fatalf("DELETE affected %d rows, want %d", n, want)
			}
			check("DELETE")
		})
	}
}

// TestPushedPredicateReportsTruncatedTuple: a tuple cut short, or one byte
// too long, is an error of the scan even when the pushed predicate rejects
// the row on a column that lies before the cut.
func TestPushedPredicateReportsTruncatedTuple(t *testing.T) {
	p := newPushDB(t, pushDesigns[0], 5)
	queries := []string{
		"SELECT k FROM t WHERE b = 1000000",
		"SELECT k FROM t WHERE 1000000 < a",
		"SELECT k FROM t WHERE k = 300 AND a = 1000000",
	}
	for _, q := range queries {
		p.expect(q, nil, nil)
	}
	tb, _ := p.db.Catalog().Get("t")
	it := tb.Scan()
	for it.Next() && it.Row()[0].I != 300 {
	}
	if it.Err() != nil || it.Row()[0].I != 300 {
		t.Fatalf("row 300 not found: %v", it.Err())
	}
	tree, key := tb.Clustered().Tree(), it.Loc().Key
	tuple, _, err := tree.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{tuple[:len(tuple)-3], append(tuple, 0)} {
		if err := tree.Put(key, bad); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if rows, err := p.sess.Query(q); err == nil || !strings.Contains(err.Error(), "malformed") {
				t.Fatalf("%s over a %d-byte tuple: %v, error %v", q, len(bad), rows, err)
			}
		}
	}
}
