package exec_test

// The EXISTS-driven DELETE battery. `DELETE FROM t WHERE EXISTS (SELECT ...
// FROM d WHERE d.x = t.a ...)` runs from d — for each row of d, probe t —
// when an index of t starts with the correlated column, and as a scan of t
// with an EXISTS per row when none does. Both must delete what the statement
// says: these tests compare the outcome with a model computed in Go from
// Table.Scan's full decode of both tables, on the two indexed designs and the
// bare heap (the fallback), with duplicate keys in d. Every statement
// is first executed while d is empty, as the engine prepares its repair
// statements, and then again after each refill of d, on recycled instances.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/record"
)

var existsDesigns = []design{
	{"clustered_prefix", []string{"CREATE TABLE t (k INT, a INT, b INT, c INT)", "CREATE CLUSTERED INDEX t_ab ON t (a, b)"}},
	{"secondary", []string{"CREATE TABLE t (k INT, a INT, b INT, c INT)", "CREATE INDEX t_a ON t (a)"}},
	{"heap", []string{"CREATE TABLE t (k INT, a INT, b INT, c INT)"}},
}

func TestExistsDrivenDeleteDifferential(t *testing.T) {
	const (
		colK = iota
		colA
		colB
		colC
	)
	for _, tc := range []struct {
		q    string
		args []any
		// hit says whether driver row d makes the EXISTS true for row r; keep
		// is the conjunct on the target beside it.
		hit  func(r, d record.Row) bool
		keep func(r record.Row) bool
		self bool // the subquery reads t, not d
	}{
		{q: "DELETE FROM t WHERE EXISTS (SELECT x FROM d WHERE d.x = t.a)",
			hit: func(r, d record.Row) bool { return holds("=", d[0], r[colA]) }},
		{q: "DELETE FROM t WHERE EXISTS (SELECT x FROM d WHERE d.x = t.a AND d.y < t.b)",
			hit: func(r, d record.Row) bool { return holds("=", d[0], r[colA]) && holds("<", d[1], r[colB]) }},
		{q: "DELETE FROM t WHERE EXISTS (SELECT DISTINCT y FROM d WHERE t.b = d.y AND t.a = d.x)",
			hit: func(r, d record.Row) bool { return holds("=", d[0], r[colA]) && holds("=", d[1], r[colB]) }},
		{q: "DELETE FROM t WHERE c >= ? AND EXISTS (SELECT x FROM d WHERE d.x = t.a) AND k <> b", args: []any{int64(1)},
			hit:  func(r, d record.Row) bool { return holds("=", d[0], r[colA]) },
			keep: func(r record.Row) bool { return holds(">=", r[colC], record.Int(1)) && holds("<>", r[colK], r[colB]) }},
		{q: "DELETE FROM t WHERE EXISTS (SELECT x FROM d WHERE d.x = t.a AND d.y > ?)", args: []any{int64(0)},
			hit: func(r, d record.Row) bool { return holds("=", d[0], r[colA]) && holds(">", d[1], record.Int(0)) }},
		{q: "DELETE FROM t WHERE EXISTS (SELECT k FROM t m WHERE m.b = t.a AND m.k < t.k)", self: true,
			hit: func(r, d record.Row) bool { return holds("=", d[colB], r[colA]) && holds("<", d[colK], r[colK]) }},
	} {
		for di, d := range existsDesigns {
			t.Run(fmt.Sprintf("%s/%s", d.name, tc.q), func(t *testing.T) {
				p := newPushDB(t, d, int64(31+di)) // its o is unused here
				p.exec("CREATE TABLE d (x INT, y INT)")
				rng := rand.New(rand.NewSource(int64(7 + di)))
				small := func() int64 { return int64(rng.Intn(6) - 2) }
				if n := p.exec(tc.q, tc.args...); !tc.self && n != 0 {
					t.Fatalf("with d empty: %d rows deleted", n)
				}
				for rep := 0; rep < 3; rep++ {
					p.exec("DELETE FROM t")
					for k := int64(0); k < pushRows/2; k++ {
						p.exec("INSERT INTO t (k, a, b, c) VALUES (?, ?, ?, ?)", k, small(), small(), small())
					}
					// Driver rows with repeats (several rows of d match one row
					// of t), and one that matches no row of t.
					p.exec("DELETE FROM d")
					for i := 0; i < 2+rep; i++ {
						x, y := small(), small()
						for n := 1 + rng.Intn(2); n > 0; n-- {
							p.exec("INSERT INTO d (x, y) VALUES (?, ?)", x, y)
						}
					}
					for _, fixed := range [][2]int64{{9, 1}, {1, -1}, {0, 2}} {
						p.exec("INSERT INTO d (x, y) VALUES (?, ?)", fixed[0], fixed[1]) // no statement goes without a hit
					}

					before := p.stored("t")
					driver := p.stored("d")
					if tc.self {
						driver = before
					}
					var kept []record.Row
					for _, r := range before {
						gone := false
						for _, dr := range driver {
							gone = gone || tc.hit(r, dr)
						}
						if !gone || (tc.keep != nil && !tc.keep(r)) {
							kept = append(kept, r)
						}
					}
					want := int64(len(before) - len(kept))
					if n := p.exec(tc.q, tc.args...); n != want || want == 0 || len(kept) == 0 {
						t.Fatalf("rep %d: %d rows deleted, want %d of %d", rep, n, want, len(before))
					}
					if got, w := canon(p.stored("t")), canon(kept); got != w {
						t.Fatalf("rep %d: table differs from the model\n got\n%s\nwant\n%s", rep, got, w)
					}
					// The index still leads to every kept row, and to no other.
					for a := int64(-2); a < 4; a++ {
						var ks []record.Row
						for _, r := range kept {
							if holds("=", r[colA], record.Int(a)) {
								ks = append(ks, record.Row{r[colK]})
							}
						}
						p.expect("SELECT k FROM t WHERE a = ?", []any{a}, ks)
					}
				}
			})
		}
	}
}
