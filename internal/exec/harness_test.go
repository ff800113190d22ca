package exec_test

// The harness. A case is a function of the harness that loads tables and
// runs statements; runCase runs it once per physical design, each in a
// database of its own. Every statement runs twice on the engine, the second
// time on the plan cache's recycled instance, and each run is checked
// against the reference (reference_test.go): the affected count, whether it
// failed, the result as a multiset, the whole written table, every entry of
// every index of it (checkTable), Tree().Check() and db.CheckPages(). The
// designs are then held to each other run for run, failures included.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/rdb"
	"repro/internal/record"
	"repro/internal/sql"
	"repro/internal/table"
)

// design is one physical design: the DDL that creates a case's tables.
type design struct {
	name string
	ddl  []string
}

// designsOf returns the named designs of table name (cols, a unique key and
// the column of a second index): clustered on the key beside the second
// index; heap_index, a heap with both; a bare heap; clustered_prefix,
// clustered (not uniquely) on the second index's column beside the unique
// one; write_through, clustered on the key alone, so that UPDATE and MERGE
// write through their scans; secondary, a heap with the second index alone;
// pair_key, clustered uniquely on the key and the second index's column,
// which is indexed on its own too, so that index's entries hold the two
// columns once each (TEdges' shape); covering, clustered uniquely on the key
// beside an index led by the second index's columns that holds every other
// column, so that every scan through it is index-only, and UPDATE and MERGE
// write through their scans and change its entries (TOutSegs' shape).
func designsOf(name, cols, key, also string, names ...string) []design {
	create := "CREATE TABLE " + name + " (" + strings.ReplaceAll(cols, ",", " INT,") + " INT)"
	index := func(kind, on string) string {
		return "CREATE " + kind + "INDEX " + name + "_" + strings.ReplaceAll(on, ", ", "_") + " ON " + name + " (" + on + ")"
	}
	covering := strings.Split(also, ", ")
	for _, c := range strings.Split(cols, ", ") {
		if !slices.Contains(covering, c) && !slices.Contains(strings.Split(key, ", "), c) {
			covering = append(covering, c)
		}
	}
	all := map[string][]string{
		"clustered":        {create, index("UNIQUE CLUSTERED ", key), index("", also)},
		"heap_index":       {create, index("UNIQUE ", key), index("", also)},
		"heap":             {create},
		"clustered_prefix": {create, index("CLUSTERED ", also), index("UNIQUE ", key)},
		"write_through":    {create, index("UNIQUE CLUSTERED ", key)},
		"secondary":        {create, index("", also)},
		"pair_key":         {create, index("UNIQUE CLUSTERED ", key+", "+also), index("", also)},
		"covering":         {create, index("UNIQUE CLUSTERED ", key), index("", strings.Join(covering, ", "))},
	}
	out := make([]design, len(names))
	for i, n := range names {
		out[i] = design{n, all[n]}
	}
	return out
}

var allDesigns = []string{"clustered", "heap_index", "heap", "clustered_prefix", "write_through", "pair_key", "covering"}

// harness runs one case in one design.
type harness struct {
	t    testing.TB
	db   *rdb.DB
	sess *rdb.Session
	ref  refDB                 // nil: to be read from the engine before the next run
	memo map[string]refOutcome // the reference's outcomes, which a case's designs share
	log  []string              // per run: the state it began in, the reference's verdict and the engine's outcome
	// ordered says the designs read every input in one order, so that they
	// must agree where the dialect leaves the outcome open.
	ordered  bool
	compared int // runs compared with a determined outcome
}

// runCase runs body once per design, as subtests, and compares their logs.
func runCase(t *testing.T, designs []design, body func(h *harness)) {
	t.Helper()
	logs, memo := make([][]string, len(designs)), map[string]refOutcome{}
	for i, d := range designs {
		t.Run(d.name, func(t *testing.T) { logs[i] = runDesign(t, d, func(h *harness) { h.memo = memo; body(h) }).log })
	}
	compareLogs(t, designs, logs)
}

// runDesign runs body in design d. The database is closed at the end, not
// deferred: a statement that panics leaves it latched.
func runDesign(t testing.TB, d design, body func(h *harness)) *harness {
	h := openHarness(t, d)
	body(h)
	if err := h.db.Close(); err != nil {
		t.Fatal(err)
	}
	return h
}

func openHarness(t testing.TB, d design) *harness {
	db, err := rdb.Open(rdb.Options{BufferPoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t, db: db, sess: db.Session(), memo: map[string]refOutcome{}}
	for _, q := range d.ddl {
		h.load(q)
	}
	return h
}

// compareLogs holds each design's log to the first's on every run the two
// began in one state and gave one verdict: a key one design does not
// enforce, or a scalar subquery's second row one plan reaches, parts them.
func compareLogs(t *testing.T, designs []design, logs [][]string) {
	t.Helper()
	for i := 1; i < len(logs); i++ {
		for j := range min(len(logs[0]), len(logs[i])) {
			a, b := strings.SplitN(logs[0][j], "\t", 3), strings.SplitN(logs[i][j], "\t", 3)
			if a[0] == b[0] && a[1] == b[1] && a[2] != b[2] {
				t.Fatalf("run %d (%s): %s did %q, %s %q", j, a[1], designs[0].name, a[2], designs[i].name, b[2])
			}
		}
	}
}

// load runs a statement on the engine alone: DDL, or the rows a case loads.
func (h *harness) load(q string, args ...any) {
	h.t.Helper()
	if _, err := h.sess.Exec(q, args...); err != nil {
		h.t.Fatalf("%s: %v", q, err)
	}
	h.ref = nil
}

// fill loads rows into table name (cols), up to 64 a statement.
func (h *harness) fill(name, cols string, rows ...[]int64) {
	h.t.Helper()
	for batch := range slices.Chunk(rows, 64) {
		var args []any
		for _, r := range batch {
			for _, v := range r {
				args = append(args, v)
			}
		}
		tuple := "(" + strings.Repeat("?, ", len(batch[0])-1) + "?)"
		h.load("INSERT INTO "+name+" ("+cols+") VALUES "+strings.Repeat(tuple+", ", len(batch)-1)+tuple, args...)
	}
}

// readRef reads the reference's tables from the engine, each in the order a
// full scan reads it.
func readRef(t testing.TB, db *rdb.DB) refDB {
	out := refDB{}
	for _, name := range db.Catalog().Names() {
		tb, _ := db.Catalog().Get(name)
		rt := &refTable{rows: stored(t, tb)}
		for _, c := range tb.Schema.Columns {
			rt.cols = append(rt.cols, c.Name)
		}
		for _, ix := range indexes(tb) {
			if ix.Unique {
				rt.uniques = append(rt.uniques, ix.Cols)
			}
		}
		out[strings.ToLower(name)] = rt
	}
	return out
}

// state renders the rows of db's tables, whatever their order, and their
// unique keys if keys.
func (db refDB) state(keys bool) string {
	var s strings.Builder
	for _, name := range slices.Sorted(maps.Keys(db)) {
		if fmt.Fprintf(&s, "%s:%x ", name, digest(db[name].rows)); keys {
			fmt.Fprint(&s, db[name].uniques)
		}
	}
	return s.String()
}

// indexes returns tb's clustered index, if any, and its secondary ones.
func indexes(tb *table.Table) []*table.Index {
	return slices.DeleteFunc(append([]*table.Index{tb.Clustered()}, tb.Secondary...), func(ix *table.Index) bool { return ix == nil })
}

// stored returns a table's rows as a full scan decodes them.
func stored(t testing.TB, tb *table.Table) []record.Row {
	var out []record.Row
	it := tb.Scan()
	for it.Next() {
		out = append(out, it.Row().Clone())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// digest hashes a multiset of rows, whatever their order.
func digest(rows []record.Row) uint64 {
	var sum uint64
	for _, r := range rows {
		h := uint64(len(r))
		for _, v := range r {
			if h ^= uint64(v.I); v.Null {
				h ^= 0x9e3779b97f4a7c15
			}
			h *= 0xff51afd7ed558ccd
			h ^= h >> 33
		}
		sum += h
	}
	return sum
}

// sameRows reports whether two multisets of rows are equal, rendering both
// when they are not.
func sameRows(got, want []record.Row) (string, string, bool) {
	if len(got) == len(want) && digest(got) == digest(want) {
		return "", "", true
	}
	canon := func(rows []record.Row) string {
		lines := make([]string, len(rows))
		for i, r := range rows {
			lines[i] = fmt.Sprint(r)
		}
		slices.Sort(lines)
		return strings.Join(lines, "\n")
	}
	return canon(got), canon(want), canon(got) == canon(want)
}

// run checks q with args, twice, and returns the reference's outcome of the
// first run.
func (h *harness) run(q string, args ...any) (first refOutcome) {
	h.t.Helper()
	st, err := h.parse(q), error(nil)
	for rep := 1; rep <= 2; rep++ {
		if h.ref == nil {
			h.ref = readRef(h.t, h.db)
		}
		key := fmt.Sprint(q, args, h.ref.state(true))
		want, ok := h.memo[key]
		if !ok {
			want = evalRef(h.ref, st, args)
			h.memo[key] = want
		}
		if want.unsupported != "" {
			h.t.Fatalf("%s: the reference does not define it: %s", q, want.unsupported)
		} else if rep == 1 {
			first = want
		}
		rows, res := &rdb.Rows{}, rdb.Result{}
		if _, query := st.(*sql.SelectStmt); !query {
			res, err = h.sess.Exec(q, args...)
		} else if rows, err = h.sess.Query(q, args...); rows == nil {
			rows = &rdb.Rows{}
		}
		h.check(st, args, fmt.Sprintf("%s %v (run %d)", q, args, rep), want, rows.Data, res.RowsAffected, err)
	}
	return first
}

func (h *harness) parse(q string) sql.Statement {
	st, err := sql.Parse(q)
	if err != nil {
		h.t.Fatalf("%s: %v", q, err)
	}
	return st
}

// check compares one engine run of st with the reference's outcome and logs
// it. A failure that hangs on the plan (reference_test.go) is no verdict; the
// engine's counts as one only where the reference, evaluating every operand
// a plan may bind, fails so too.
func (h *harness) check(st sql.Statement, args []any, at string, want refOutcome, rows []record.Row, n int64, err error) {
	h.t.Helper()
	state, verdict, got := h.ref.state(false), "ok", fmt.Sprintf("n=%d rows=%x failed=%v", n, digest(rows), err != nil)
	bound := planBound(err) && planBound(evalEager(h.ref, st, args))
	switch {
	case err != nil && !bound && !errors.Is(err, table.ErrUniqueViolation) && !strings.Contains(err.Error(), "a stored tuple holds no NULL"):
		h.t.Fatalf("%s: %v", at, err)
	case want.undetermined && h.ordered:
		verdict = "undetermined"
	case want.undetermined: // which run fails follows the choice too
		verdict, got = "undetermined", ""
	case (want.err != nil || err != nil) && (want.mayFail || planBound(want.err) || bound):
		verdict, got = "may fail", ""
	case want.err != nil:
		verdict, got = "fails", "failed"
		if err == nil || errors.Is(want.err, table.ErrUniqueViolation) && !errors.Is(err, table.ErrUniqueViolation) {
			h.t.Fatalf("%s: the engine returned %v, the reference fails: %v", at, err, want.err)
		}
	case err != nil:
		h.t.Fatalf("%s: %v", at, err)
	case want.target == "":
		if g, w, ok := sameRows(rows, want.rows); !ok {
			h.t.Fatalf("%s:\n got %d rows\n%s\nwant %d rows\n%s", at, len(rows), g, len(want.rows), w)
		}
	case n != want.n:
		h.t.Fatalf("%s: %d rows affected, want %d", at, n, want.n)
	}
	if verdict == "ok" || verdict == "fails" {
		h.compared++
	}
	if want.target != "" {
		tb, _ := h.db.Catalog().Get(want.target)
		after := stored(h.t, tb)
		if verdict == "ok" {
			after = want.db[want.target].rows
		}
		h.checkTable(at, tb, after)
		if got != "" && (verdict == "ok" || h.ordered) { // what a failed statement leaves follows the order it reads in
			got += fmt.Sprintf(" %s=%x", want.target, digest(after))
		}
	}
	h.log = append(h.log, state+"\t"+verdict+"\t"+got)
	h.ref = nil
	if verdict == "ok" {
		h.ref = want.db
	}
}

// planBound reports an error whose raising hangs on how much of the data a
// plan evaluates: a scalar subquery's second row, a TOP that is no count.
func planBound(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "scalar subquery returned") || strings.Contains(err.Error(), "TOP requires"))
}

// checkTable compares the stored table with want and walks every index of
// it beside its B+tree: each entry's key begins with its row's key columns,
// and the rows the entries lead to are want's. Then it checks the trees and
// the database's pages.
func (h *harness) checkTable(at string, tb *table.Table, want []record.Row) {
	h.t.Helper()
	if g, w, ok := sameRows(stored(h.t, tb), want); !ok {
		h.t.Fatalf("%s: table %s differs from the reference\n got\n%s\nwant\n%s", at, tb.Name, g, w)
	}
	for _, ix := range indexes(tb) {
		if err := ix.Tree().Check(); err != nil {
			h.t.Fatalf("%s: index %s: %v", at, ix.Name, err)
		}
		lookup := ix
		if ix == tb.Clustered() {
			lookup = nil // how LookupEq names the clustered index
		}
		var got []record.Row
		it, entries := tb.LookupEq(lookup, nil), ix.Tree().Scan(nil, nil)
		for it.Next() {
			var cols []byte // the row's key columns as the tree stores them: 8 little-endian bytes each
			for _, v := range pick(it.Row(), ix.Cols) {
				cols = binary.LittleEndian.AppendUint64(cols, uint64(v.I))
			}
			if !entries.Next() || !bytes.HasPrefix(entries.Key(), cols) {
				h.t.Fatalf("%s: index %s holds %v under a key not its own", at, ix.Name, it.Row())
			}
			got = append(got, it.Row().Clone())
		}
		if g, w, ok := sameRows(got, want); it.Err() != nil || entries.Next() || !ok {
			h.t.Fatalf("%s: index %s: %v\n got\n%s\nwant\n%s", at, ix.Name, it.Err(), g, w)
		}
	}
	if err := h.db.CheckPages(); err != nil {
		h.t.Fatalf("%s: %v", at, err)
	}
}
