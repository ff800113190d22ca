package exec_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/rdb"
	"repro/internal/record"
)

// rankCase is one window: the block `SELECT items, ROW_NUMBER() OVER
// (window) FROM from` kept to rank 1, run once per binding in args, in turn.
// part and ord compute the partition and order values in Go from a row of
// items and the binding.
type rankCase struct {
	name, items, from, window string
	args                      [][]any
	part, ord                 func(r record.Row, args []any) []record.Value
}

func cols(r record.Row, is ...int) []record.Value {
	out := make([]record.Value, len(is))
	for j, i := range is {
		out[j] = r[i]
	}
	return out
}

// rankOneModel is ROW_NUMBER kept to rank 1 by definition: sort the input by
// partition key, order values and input position, keep the first row of each
// partition, and emit the kept rows in input order with their rank appended.
func rankOneModel(in []record.Row, args []any, c rankCase) []record.Row {
	key := func(i int) string { return string(record.EncodeKey(nil, c.part(in[i], args)...)) }
	idx := make([]int, len(in))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		a, b := idx[x], idx[y]
		if ka, kb := key(a), key(b); ka != kb {
			return ka < kb
		}
		if d := slices.CompareFunc(c.ord(in[a], args), c.ord(in[b], args), record.Compare); d != 0 {
			return d < 0
		}
		return a < b
	})
	var keep []int
	for j, i := range idx {
		if j == 0 || key(i) != key(idx[j-1]) {
			keep = append(keep, i)
		}
	}
	sort.Ints(keep)
	out := make([]record.Row, len(keep))
	for j, i := range keep {
		out[j] = append(in[i].Clone(), record.Int(1))
	}
	return out
}

// rankOneQueries returns the case's statement and the query that reads the
// window's input: the same FROM and WHERE, so the same plan and row order.
func rankOneQueries(c rankCase) (stmt, input string) {
	n := len(strings.Split(c.items, ","))
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	list := strings.Join(names, ", ")
	return "SELECT " + list + ", rn FROM (SELECT " + c.items + ", ROW_NUMBER() OVER (" + c.window + ") FROM " + c.from +
			") tmp (" + list + ", rn) WHERE rn = 1",
		"SELECT " + c.items + " FROM " + c.from
}

// rankOneWant runs the input query, which binds the last of args (a `?` in
// the window comes before those of FROM and WHERE), and applies the model to
// its rows.
func (p *battery) rankOneWant(c rankCase, args []any) []record.Row {
	p.t.Helper()
	_, input := rankOneQueries(c)
	rows, err := p.sess.Query(input, args[len(args)-strings.Count(input, "?"):]...)
	if err != nil {
		p.t.Fatalf("%s %v: %v", input, args, err)
	}
	return rankOneModel(rows.Data, args, c)
}

// runRankOne executes the prepared statement with args and compares whole
// rows, in order, with want.
func runRankOne(st *rdb.Stmt, args []any, want []record.Row) error {
	rows, err := st.Query(args...)
	if err != nil {
		return err
	}
	if got, w := fmt.Sprint(rows.Data), fmt.Sprint(want); got != w {
		return fmt.Errorf("args %v: got %d rows\n%s\nwant %d rows\n%s", args, len(rows.Data), got, len(want), w)
	}
	return nil
}

// TestRankOneWindow checks the Window operator against its definition on the
// three physical designs, over scans, index probes and joins: ties on the
// order values, one and two partition and order columns, no PARTITION BY, a
// partition on an argument (nil among them), empty input. Every case runs its
// bindings in turn through one prepared statement, twice, so the operator
// instance is recycled; "retention" crosses the size above which Close drops
// the slabs and back, and smaller after larger, and "concurrent" runs two
// executions of one statement at once.
func TestRankOneWindow(t *testing.T) {
	plus := func(a record.Value, b any) record.Value {
		if a.Null || b == nil {
			return record.Value{Null: true}
		}
		return record.Int(a.I + b.(int64))
	}
	neg := func(v record.Value) record.Value { return record.Int(-v.I) }
	none := [][]any{nil}
	cases := []rankCase{
		{name: "ties", items: "k, a, b, c", from: "t", window: "PARTITION BY a ORDER BY b", args: none,
			part: func(r record.Row, _ []any) []record.Value { return cols(r, 1) },
			ord:  func(r record.Row, _ []any) []record.Value { return cols(r, 2) }},
		{name: "two_columns", items: "k, a, b, c", from: "t", window: "PARTITION BY a, b ORDER BY c, 0 - k", args: none,
			part: func(r record.Row, _ []any) []record.Value { return cols(r, 1, 2) },
			ord:  func(r record.Row, _ []any) []record.Value { return []record.Value{r[3], neg(r[0])} }},
		{name: "no_partition", items: "k, b, c", from: "t", window: "ORDER BY b, c", args: none,
			part: func(record.Row, []any) []record.Value { return nil },
			ord:  func(r record.Row, _ []any) []record.Value { return cols(r, 1, 2) }},
		{name: "argument", items: "k, a, c", from: "t", window: "PARTITION BY a + ? ORDER BY c",
			args: [][]any{{int64(1)}, {nil}, {int64(-2)}},
			part: func(r record.Row, args []any) []record.Value { return []record.Value{plus(r[1], args[0])} },
			ord:  func(r record.Row, _ []any) []record.Value { return cols(r, 2) }},
		{name: "empty", items: "k, a", from: "t WHERE k < 0", window: "PARTITION BY a ORDER BY k", args: none,
			part: func(r record.Row, _ []any) []record.Value { return cols(r, 1) },
			ord:  func(r record.Row, _ []any) []record.Value { return cols(r, 0) }},
		{name: "probe", items: "k, b, c", from: "t WHERE a = ?", window: "PARTITION BY b ORDER BY c",
			args: [][]any{{int64(1)}, {int64(3)}, {int64(9)}},
			part: func(r record.Row, _ []any) []record.Value { return cols(r, 1) },
			ord:  func(r record.Row, _ []any) []record.Value { return cols(r, 2) }},
		{name: "join", items: "o.y, t.k, t.c", from: "o, t WHERE o.x = t.a", window: "PARTITION BY t.c ORDER BY o.y, t.k",
			args: none,
			part: func(r record.Row, _ []any) []record.Value { return cols(r, 2) },
			ord:  func(r record.Row, _ []any) []record.Value { return cols(r, 0, 1) }},
		// 6 · bound offers, 5 · bound partitions: o.x repeats one value.
		{name: "retention", items: "t.k, o.x, t.c", from: "o, t WHERE t.k < ?", window: "PARTITION BY t.k, o.x ORDER BY t.c",
			args: [][]any{{int64(pushRows)}, {int64(10)}, {int64(10)}, {int64(1)}, {int64(pushRows)}, {int64(1)}},
			part: func(r record.Row, _ []any) []record.Value { return cols(r, 0, 1) },
			ord:  func(r record.Row, _ []any) []record.Value { return cols(r, 2) }},
	}
	for _, d := range pushDesigns {
		t.Run(d.name, func(t *testing.T) {
			p := newPushDB(t, d, 7)
			for _, c := range cases {
				stmt, _ := rankOneQueries(c)
				st, err := p.db.Prepare(stmt)
				if err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
				for rep := 0; rep < 2; rep++ {
					for _, args := range c.args {
						if err := runRankOne(st, args, p.rankOneWant(c, args)); err != nil {
							t.Fatalf("%s rep %d: %s: %v", c.name, rep, stmt, err)
						}
					}
				}
			}
			c := cases[len(cases)-1]
			stmt, _ := rankOneQueries(c)
			st, err := p.db.Prepare(stmt)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, bound := range []int64{pushRows, 30} {
				args := []any{bound}
				want := p.rankOneWant(c, args)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for rep := 0; rep < 5; rep++ {
						if err := runRankOne(st, args, want); err != nil {
							t.Errorf("concurrent rep %d: %v", rep, err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
