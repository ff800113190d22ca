package exec_test

// The seeded statement generator and FuzzExec: statements nobody wrote by
// hand, run on the engine and on the reference.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/sweep"
)

// genKinds are the generator's statement kinds over t (k, a, b, c: unique
// on k, indexed on a in most designs), the merge source s (k, a, b, c: k
// distinct) and the outer table o (x, y), drawn in turn. In a kind, ? is a
// binding, {v} an operand, {w} a WHERE over t, {w q outer} one over the
// columns q qualifies beside the outer column, {x|y} one of x and y.
var genKinds = []string{
	"SELECT {k, a|DISTINCT a|b + c, k|a - b * c} FROM t WHERE {w}",
	"SELECT MIN(b), MAX(a + c), COUNT(*) FROM t WHERE {w}",
	"SELECT a, MIN(b), MAX(k), COUNT(*) FROM t WHERE {w} GROUP BY a",
	"SELECT {TOP 1000 k, b|TOP 1 k, c} FROM t WHERE {w}",
	"SELECT ? + 1, (SELECT COUNT(*) FROM t WHERE {w})",
	"SELECT o.y, t.k FROM o, t WHERE {t.a = o.x|t.k = o.y|t.b = o.x + 0} AND {w t. o.x}",
	"SELECT t.k, s.k FROM t, s WHERE t.b = s.c AND {w t. s.a}",
	"SELECT o.x, o.y FROM o WHERE {NOT |}EXISTS (SELECT k FROM t WHERE {w t. o.x})",
	"SELECT o.x, (SELECT {MIN(t.b)|MAX(t.k)|COUNT(*)} FROM t WHERE t.a = o.x AND {w t. o.y}) FROM o",
	"SELECT d.k, d.s FROM (SELECT k, b + c FROM t WHERE {w}) d (k, s) WHERE d.s {>|<=} ?",
	"SELECT c0, c1, c2, rn FROM (SELECT a, k, b, ROW_NUMBER() OVER (PARTITION BY a ORDER BY {k|b, k|0 - k}) FROM t WHERE {w}) tmp (c0, c1, c2, rn) WHERE rn = 1",
	"SELECT c0, c1, rn FROM (SELECT o.x, t.k, ROW_NUMBER() OVER (PARTITION BY o.x ORDER BY t.b + t.c, t.k) FROM o, t WHERE t.a = o.y AND {w t. o.x}) tmp (c0, c1, rn) WHERE rn = 1",
	"INSERT INTO t (k, a, b, c) VALUES ((SELECT MAX(k) FROM t) + 1, ?, ?, ?)",
	"INSERT INTO t (k, a, b, c) SELECT k + (SELECT MAX(k) FROM t) + 1, a, b, c FROM s WHERE {w}",
	"UPDATE t SET {b = |c = c + |a = }{v} WHERE {w}",
	"UPDATE t SET k = k + 100000, b = 0 WHERE k = ?",
	"UPDATE t SET b = s.b, c = t.c + s.c FROM s WHERE t.k = s.k AND ({w t. s.a} OR t.a >= s.a)",
	"DELETE FROM t WHERE k = ? {OR|AND} {w}",
	"DELETE FROM t WHERE EXISTS (SELECT x FROM o WHERE o.x = t.a AND o.y {=|<} t.k - ?)",
	"MERGE INTO t AS tt USING s AS ss ON (tt.k = ss.k) WHEN MATCHED AND {w tt. ss.b} THEN UPDATE SET b = ss.b, c = tt.c + 1 " +
		"WHEN NOT MATCHED THEN INSERT (k, a, b, c) VALUES (ss.k, ss.a, ss.b, ss.c)",
	"MERGE INTO t AS tt USING (SELECT k + ?, a, b, c FROM s WHERE {w}) AS ss (k, a, b, c) ON (tt.k = ss.k) " +
		"WHEN MATCHED THEN UPDATE SET a = ss.a WHEN NOT MATCHED THEN INSERT (k, a, b, c) VALUES (ss.k, ss.a, ss.b, ss.c)",
	// The source reads the target through its index on a, which the
	// statement's writes change: it is read whole before the first one.
	"MERGE INTO t AS tt USING (SELECT k {+ 0|+ 1}, a, b, c + ? FROM t WHERE a = ? AND {w}) AS ss (k, a, b, c) ON (tt.k = ss.k) " +
		"WHEN MATCHED AND tt.c > ss.c THEN UPDATE SET {a = ss.a + 1|c = ss.c|b = ss.b, a = tt.a - 1} " +
		"WHEN NOT MATCHED THEN INSERT (k, a, b, c) VALUES (ss.k, ss.a, ss.b, ss.c)",
}

// gen draws statements; their bindings go to args, in the order of the ?s.
type gen struct {
	rng  *rand.Rand
	args []any
}

func (g *gen) pick(xs ...string) string { return xs[g.rng.Intn(len(xs))] }

// bind adds a binding: a small value, or NULL one time in six.
func (g *gen) bind() string {
	var v any
	if g.rng.Intn(6) > 0 {
		v = int64(g.rng.Intn(6) - 2)
	}
	g.args = append(g.args, v)
	return "?"
}

// operand returns an operand of a random kind: a literal, a binding, a
// product of two, an uncorrelated subquery (NULL over no row), the outer
// row's column, or a column of q's table.
func (g *gen) operand(q, outer string) string {
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprint(g.rng.Intn(4))
	case 1:
		return g.bind()
	case 2:
		return g.bind() + " * " + g.bind()
	case 3:
		return g.pick("(SELECT MIN(x) FROM o)", "(SELECT MAX(y) FROM o WHERE y > 100)", "(SELECT COUNT(*) FROM o)")
	case 4:
		if outer != "" {
			return outer
		}
	}
	return q + g.pick("a", "b", "c")
}

// where returns one to three comparisons of q's columns under AND and OR.
func (g *gen) where(q, outer string) string {
	w := ""
	for i := 1 + g.rng.Intn(3); i > 0; i-- {
		if w != "" {
			w = "(" + w + ") " + g.pick("AND", "OR") + " "
		}
		col, op, x := q+g.pick("k", "a", "b", "c"), g.pick("=", "<>", "<", "<=", ">", ">="), g.operand(q, outer)
		w += g.pick(col+" "+op+" "+x, x+" "+op+" "+col)
	}
	return w
}

// expand draws a statement of kind tmpl.
func (g *gen) expand(tmpl string) string {
	var out strings.Builder
	for {
		i := strings.IndexAny(tmpl, "{?")
		if i < 0 {
			return out.String() + tmpl
		}
		out.WriteString(tmpl[:i])
		if tmpl[i] == '?' {
			out.WriteString(g.bind())
			tmpl = tmpl[i+1:]
			continue
		}
		j := i + strings.IndexByte(tmpl[i:], '}')
		switch spec := tmpl[i+1 : j]; append(strings.Fields(spec), "")[0] {
		case "w":
			f := append(strings.Fields(spec), "", "")
			out.WriteString(g.where(f[1], f[2]))
		case "v":
			out.WriteString(g.operand("", ""))
		default:
			out.WriteString(g.pick(strings.Split(spec, "|")...))
		}
		tmpl = tmpl[j+1:]
	}
}

// next draws a statement of kind i that the reference determines, that does
// not fail and whose failing does not hang on the plan, tried on a copy of
// the reference with t's key unique in every design; or none.
func (g *gen) next(h *harness, i int) (string, []any) {
	if h.ref == nil {
		h.ref = readRef(h.t, h.db)
	}
	ref, keyed := h.ref.clone(), *h.ref["t"]
	keyed.uniques, ref["t"] = [][]int{{0}}, &keyed
	for range 20 {
		g.args = nil
		q := g.expand(genKinds[i%len(genKinds)])
		if out := evalRef(ref, h.parse(q), g.args); out.unsupported != "" {
			h.t.Fatalf("generated %q: %s", q, out.unsupported)
		} else if !out.undetermined && !out.mayFail && out.err == nil {
			return q, g.args
		}
	}
	return "", nil
}

// TestGeneratedStatements runs, in every design, the statements the
// generator draws from each seed; a failing subtest names its seed.
func TestGeneratedStatements(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			runCase(t, pushDesigns, func(h *harness) {
				rng := rand.New(rand.NewSource(seed))
				loadPush(h, rng, 60)
				h.load("CREATE TABLE s (k INT, a INT, b INT, c INT)")
				for _, k := range []int64{3, 10, 17, 29, 44, 58, 61, 75, 90, 200} { // t's keys and new ones
					h.fill("s", "k, a, b, c", []int64{k, rng.Int63n(6) - 2, rng.Int63n(6) - 2, rng.Int63n(6) - 2})
				}
				g := &gen{rng: rng}
				for i := range 4 * len(genKinds) {
					if q, args := g.next(h, i); q != "" {
						h.run(q, args...)
					}
				}
			})
		})
	}
}

// fuzzCorpus returns FuzzExec's seed texts: the benchmark ladder's nine,
// core's golden statements, one statement per construct outside the
// dialect, eight reads and writes of TOutSegs through its covering tid
// index, and Prim's former frontier pick, a TOP 1 scalar subquery.
func fuzzCorpus(t testing.TB) []string {
	var out []string
	for _, file := range []string{"../sql/testdata/ladder.txt", "../core/testdata/golden_statements.txt", "../sql/testdata/pruned.txt", "../sql/testdata/segreads.txt"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			f := strings.Split(line, "\t")
			if text, err := strconv.Unquote(f[len(f)-1]); len(f) == 4 && err == nil { // pruned.txt's quoted text
				out = append(out, text)
			} else if line[0] != '#' {
				out = append(out, f[len(f)-1])
			}
		}
	}
	return append(out, "UPDATE TVisited_q0 SET f = ? WHERE f = 0 AND nid = (SELECT TOP 1 nid FROM TVisited_q0 WHERE f = 0 AND d2s = (SELECT MIN(d2s) FROM TVisited_q0 WHERE f = 0))")
}

// fuzzFixture returns the three physical designs of the declared relations
// q names (a read's working set under its _q0 name), each loaded with the
// same rows: ids in [0, 8), flags in [0, 3), costs and distances from a
// range wide enough that sums rarely tie.
func fuzzFixture(q string, rng *rand.Rand) []design {
	designs := []design{{name: "CluIndex"}, {name: "Index"}, {name: "NoIndex"}}
	for _, r := range sweep.Relations {
		if r.Owner == sweep.Scratch {
			r.Name += "_q0"
		}
		if !strings.Contains(strings.ToLower(q), strings.ToLower(r.Name)) {
			continue
		}
		for i, s := range []sweep.IndexStrategy{sweep.ClusteredIndex, sweep.SecondaryIndex, sweep.NoIndex} {
			designs[i].ddl = append(designs[i].ddl, r.DDL(s)...)
		}
		cols, seen := strings.Split(r.Cols, ", "), map[string]bool{}
		for n := 4 + rng.Intn(12); n > 0; n-- {
			row, key := make([]string, len(cols)), ""
			for j, c := range cols {
				v := rng.Int63n(8)
				if c == "f" || c == "b" {
					v = rng.Int63n(3)
				} else if strings.Contains("cost dist d2s d2t dout din dmin deg", c) {
					v = rng.Int63n(1 << 20)
				}
				if row[j] = fmt.Sprint(v); slices.Contains(strings.Split(r.Key, ", "), c) {
					key += row[j] + " "
				}
			}
			if !r.Unique || !seen[key] {
				seen[key] = true
				for i := range designs {
					designs[i].ddl = append(designs[i].ddl, "INSERT INTO "+r.Name+" ("+r.Cols+") VALUES ("+strings.Join(row, ", ")+")")
				}
			}
		}
	}
	return designs
}

// FuzzExec: a statement that prepares, bound from the seed (a flag, an id,
// a distance, or NULL one time in eight), does under each physical design
// what it does on the reference. FuzzParse holds the parser to its
// properties over the same seed texts.
func FuzzExec(f *testing.F) {
	for i, q := range fuzzCorpus(f) {
		f.Add(q, int64(i))
	}
	var prepared, determined int
	f.Cleanup(func() {
		f.Logf("%d of %d statements that prepared were determined and compared", determined, prepared)
		if flag.Lookup("test.fuzz").Value.String() == "" && determined*10 < prepared*9 {
			f.Errorf("only %d of %d statements that prepared were determined", determined, prepared)
		}
	})
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		st, n, err := sql.ParseStmt(text)
		switch st.(type) {
		case nil, *sql.CreateTableStmt, *sql.CreateIndexStmt, *sql.DropTableStmt:
			return
		}
		rng := rand.New(rand.NewSource(seed))
		designs := fuzzFixture(text, rng)
		args := make([]any, n)
		for i := range args {
			if k := rng.Intn(8); k > 0 {
				args[i] = rng.Int63n([]int64{3, 3, 3, 8, 8, 1 << 21, 1 << 21}[k-1])
			}
		}
		logs := make([][]string, len(designs))
		for i, d := range designs {
			h := runDesign(t, d, func(h *harness) {
				if _, err = h.db.Prepare(text); err != nil && i > 0 {
					t.Fatalf("%s prepares under %s but not under %s: %v", text, designs[0].name, d.name, err)
				} else if err == nil && (i > 0 || evalRef(readRef(t, h.db), st, args).unsupported == "") {
					h.run(text, args...)
				}
			})
			if logs[i] = h.log; len(logs[0]) == 0 {
				return
			} else if i == 0 {
				prepared++
				if h.compared == 2 {
					determined++
				}
			}
		}
		compareLogs(t, designs, logs)
	})
}
