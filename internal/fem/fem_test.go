package fem

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/rdb"
)

func TestLevelOf(t *testing.T) {
	mergeOnly := rdb.Profile{Name: "merge-only", SupportsMerge: true}
	sql92 := rdb.Profile{Name: "SQL92"}
	for _, tc := range []struct {
		p           rdb.Profile
		traditional bool
		want        Level
	}{
		{rdb.ProfileDBMSX, false, MergeWindow},
		{rdb.ProfileDBMSX, true, Plain},
		{rdb.ProfilePostgreSQL9, false, Window},
		{rdb.ProfilePostgreSQL9, true, Plain},
		{sql92, false, Plain},
		{mergeOnly, false, Plain},
	} {
		if got := LevelOf(tc.p, tc.traditional); got != tc.want {
			t.Errorf("LevelOf(%s, traditional=%v) = %d, want %d", tc.p.Name, tc.traditional, got, tc.want)
		}
	}
}

// The four ways a round runs, each on the weakest profile that allows it,
// so rdb's feature check rejects a statement above the level it was
// rendered for.
var forms = []struct {
	name     string
	profile  rdb.Profile
	level    Level
	separate bool
	stmts    int // statements per round of a one-arm, inserting Merge
}{
	{"fused", rdb.ProfileDBMSX, MergeWindow, false, 1},
	{"separate", rdb.ProfileDBMSX, MergeWindow, true, 3},
	{"window", rdb.ProfilePostgreSQL9, Window, false, 4},
	{"plain", rdb.Profile{Name: "SQL92"}, Plain, false, 6},
}

// row is a working-table row (src is ignored under the (nid) key shape);
// in an expectation pars lists the parents a cost tie allows.
type row struct {
	src, nid, dist, par, f int64
	pars                   []int64
	changed                bool // the round inserted or updated it
}

type scenario struct {
	name    string
	forward bool
	edges   [][3]int64 // fid, tid, cost
	bound   int64
	before  []row
	after   []row
}

// Scenario "distinct": every offer has a different cost. From the frontier
// {1 (dist 4), 2 (dist 1)} of source 0, forward: node 1 improves through 2
// and re-opens although it is on the frontier; settled node 3 improves and
// re-opens (9 through 1 beats 10 through 2); node 4 is inserted; candidate 5
// holds a cheaper distance than its offer and stays; the offer to 6 is over
// the bound. Scenario "ties": backward, two sources. (0, 3) is offered cost
// 5 through 1 and through 2 — the window forms keep whichever sorts first,
// the aggregate form the smaller parent; (0, 4) holds exactly its offer
// (the merge condition is strict) and stays; source 5 updates one row and
// inserts another, proving the carried key column separates the sources.
var scenarios = []scenario{
	{
		name: "distinct", forward: true, bound: 25,
		edges: [][3]int64{{0, 1, 4}, {0, 2, 1}, {2, 1, 2}, {1, 3, 5}, {2, 3, 9}, {3, 4, 1}, {2, 4, 20}, {1, 5, 7}, {2, 6, 30}},
		before: []row{
			{src: 0, nid: 0, dist: 0, par: 0, f: 1}, {src: 0, nid: 1, dist: 4, par: 0, f: 2},
			{src: 0, nid: 2, dist: 1, par: 0, f: 2}, {src: 0, nid: 3, dist: 12, par: 8, f: 1},
			{src: 0, nid: 5, dist: 6, par: 0, f: 0},
		},
		after: []row{
			{src: 0, nid: 0, dist: 0, pars: []int64{0}, f: 1}, {src: 0, nid: 1, dist: 3, pars: []int64{2}, f: 0, changed: true},
			{src: 0, nid: 2, dist: 1, pars: []int64{0}, f: 2}, {src: 0, nid: 3, dist: 9, pars: []int64{1}, f: 0, changed: true},
			{src: 0, nid: 4, dist: 21, pars: []int64{2}, f: 0, changed: true}, {src: 0, nid: 5, dist: 6, pars: []int64{0}, f: 0},
		},
	},
	{
		name: "ties", forward: false, bound: 1 << 40,
		edges: [][3]int64{{1, 0, 2}, {2, 0, 3}, {3, 1, 3}, {3, 2, 2}, {4, 1, 1}, {4, 5, 1}, {3, 5, 4}},
		before: []row{
			{src: 0, nid: 0, dist: 0, par: 0, f: 1}, {src: 0, nid: 1, dist: 2, par: 0, f: 2},
			{src: 0, nid: 2, dist: 3, par: 0, f: 2}, {src: 0, nid: 4, dist: 3, par: 9, f: 0},
			{src: 5, nid: 5, dist: 0, par: 5, f: 2}, {src: 5, nid: 3, dist: 9, par: 7, f: 1},
		},
		after: []row{
			{src: 0, nid: 0, dist: 0, pars: []int64{0}, f: 1}, {src: 0, nid: 1, dist: 2, pars: []int64{0}, f: 2},
			{src: 0, nid: 2, dist: 3, pars: []int64{0}, f: 2}, {src: 0, nid: 3, dist: 5, pars: []int64{1, 2}, f: 0, changed: true},
			{src: 0, nid: 4, dist: 3, pars: []int64{9}, f: 0},
			{src: 5, nid: 3, dist: 4, pars: []int64{5}, f: 0, changed: true}, {src: 5, nid: 4, dist: 1, pars: []int64{5}, f: 0, changed: true},
			{src: 5, nid: 5, dist: 0, pars: []int64{5}, f: 2},
		},
	},
}

const farSentinel = int64(777) // bound to the insert list's placeholder

// TestRoundDifferential runs one E+M round from a fixed frontier under
// every form and both key shapes and checks the working table afterwards —
// distance, parent, flag and the insert-list placeholder's column, for
// untouched, re-opened and inserted rows alike — against the hand-computed
// expectation, and the affected-row count against the rows that changed.
// The three forms built on the window function must also agree with each
// other row for row, tie-broken parents included; the aggregate form picks
// the smallest parent among a tie's holders.
func TestRoundDifferential(t *testing.T) {
	for _, sc := range scenarios {
		for _, keyed := range []bool{false, true} {
			srcs := []int64{-1} // (src, nid): the whole scenario at once
			if !keyed {
				srcs = nil // (nid): one source's rows at a time
				for _, r := range sc.before {
					if !slices.Contains(srcs, r.src) {
						srcs = append(srcs, r.src)
					}
				}
			}
			for _, src := range srcs {
				var windowRows []string
				for _, form := range forms {
					name := fmt.Sprintf("%s/keyed=%v/src=%d/%s", sc.name, keyed, src, form.name)
					got, affected := runRound(t, name, sc, keyed, src, form.profile, form.level, form.separate, form.stmts)
					want, changed := 0, int64(0)
					for _, r := range sc.after {
						if keyed || r.src == src {
							want++
							if r.changed {
								changed++
							}
						}
					}
					if affected != changed {
						t.Errorf("%s: %d rows affected, want %d", name, affected, changed)
					}
					if len(got) != want {
						t.Fatalf("%s: rows %v, want %d of them", name, got, want)
					}
					i := 0
					for _, r := range sc.after {
						if !keyed && r.src != src {
							continue
						}
						g := got[i]
						i++
						far := int64(0)
						if r.changed && !slices.ContainsFunc(sc.before, func(b row) bool { return b.src == r.src && b.nid == r.nid }) {
							far = farSentinel
						}
						pars := r.pars
						if form.level == Plain {
							pars = []int64{slices.Min(r.pars)}
						}
						if g.src != r.src && keyed || g.nid != r.nid || g.dist != r.dist || g.f != r.f ||
							!slices.Contains(pars, g.par) || g.pars[0] != far {
							t.Errorf("%s: row %+v, want %+v (par in %v, far %d)", name, g, r, pars, far)
						}
					}
					if form.level != Plain {
						text := fmt.Sprint(got)
						windowRows = append(windowRows, text)
						if text != windowRows[0] {
							t.Errorf("%s: rows %s differ from the fused form's %s", name, text, windowRows[0])
						}
					}
				}
			}
		}
	}
}

// runRound loads the scenario into a fresh database of the given profile,
// runs one round and returns the working table sorted by key (the far
// column in pars[0]) with the round's affected-row count.
func runRound(t *testing.T, name string, sc scenario, keyed bool, src int64, profile rdb.Profile, level Level, separate bool, wantStmts int) ([]row, int64) {
	t.Helper()
	db, err := rdb.Open(rdb.Options{Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sess := db.Session()
	defer sess.Close()
	mustExec := func(q string, args ...any) {
		t.Helper()
		if _, err := sess.Exec(q, args...); err != nil {
			t.Fatalf("%s: %s: %v", name, q, err)
		}
	}
	key, keyCols := []string{"nid"}, "nid INT"
	if keyed {
		key, keyCols = []string{"src", "nid"}, "src INT, nid INT"
	}
	keyList := strings.Join(key, ", ")
	mustExec("CREATE TABLE G (fid INT, tid INT, cost INT)")
	mustExec("CREATE TABLE W (" + keyCols + ", dist INT, par INT, f INT, far INT)")
	mustExec("CREATE UNIQUE CLUSTERED INDEX w_key ON W (" + keyList + ")")
	mustExec("CREATE TABLE X (" + keyCols + ", par INT, cost INT)")
	mustExec("CREATE UNIQUE CLUSTERED INDEX x_key ON X (" + keyList + ")")
	mustExec("CREATE TABLE XC (" + keyCols + ", cost INT)")
	mustExec("CREATE UNIQUE CLUSTERED INDEX xc_key ON XC (" + keyList + ")")
	for _, e := range sc.edges {
		mustExec("INSERT INTO G (fid, tid, cost) VALUES (?, ?, ?)", e[0], e[1], e[2])
	}
	for _, r := range sc.before {
		if keyed {
			mustExec("INSERT INTO W (src, nid, dist, par, f, far) VALUES (?, ?, ?, ?, ?, 0)", r.src, r.nid, r.dist, r.par, r.f)
		} else if r.src == src {
			mustExec("INSERT INTO W (nid, dist, par, f, far) VALUES (?, ?, ?, ?, 0)", r.nid, r.dist, r.par, r.f)
		}
	}

	vals := make([]string, len(key))
	for i, k := range key {
		vals[i] = "source." + k
	}
	stmts := Operators(level,
		Expand{Edges: "G", Forward: sc.forward, Cost: "out.cost + q.dist",
			Where: "q.f = 2 AND out.cost + q.dist <= ?", StageCost: "XC"},
		Merge{Table: "W", Key: key, Stage: "X",
			Matched:    []Branch{{When: "target.dist > source.cost", Set: "dist = source.cost, par = source.par, f = 0"}},
			InsertCols: keyList + ", dist, par, f, far",
			InsertVals: strings.Join(vals, ", ") + ", source.cost, source.par, 0, ?"},
	).Round(separate)
	if len(stmts) != wantStmts {
		t.Errorf("%s: %d statements in the round, want %d", name, len(stmts), wantStmts)
	}
	affected, err := Run(stmts, func(s Stmt, args []any) (int64, error) {
		res, err := sess.Exec(s.Text, args...)
		return res.RowsAffected, err
	}, []any{sc.bound}, []any{farSentinel})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}

	sel := "SELECT nid, nid, dist, par, f, far FROM W"
	if keyed {
		sel = "SELECT src, nid, dist, par, f, far FROM W"
	}
	rows, err := sess.Query(sel)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]row, 0, rows.Len())
	for _, r := range rows.Data {
		out = append(out, row{src: r[0].I, nid: r[1].I, dist: r[2].I, par: r[3].I, f: r[4].I, pars: []int64{r[5].I}})
	}
	slices.SortFunc(out, func(a, b row) int {
		if a.src != b.src {
			return int(a.src - b.src)
		}
		return int(a.nid - b.nid)
	})
	return out, affected
}

// TestMergeSelectDifferential merges the rows of a caller-written SELECT
// under every level: a cheaper candidate replaces the recorded row, a
// dearer one leaves it, an unrecorded pair is inserted — same rows and the
// same affected count (2) whether one MERGE or staging + UPDATE + INSERT.
func TestMergeSelectDifferential(t *testing.T) {
	m := Merge{Table: "SEG", Key: []string{"fid", "tid"}, Carry: []string{"pid", "cost"}, Stage: "SM",
		Matched:    []Branch{{When: "target.cost > source.cost", Set: "cost = source.cost, pid = source.pid"}},
		InsertCols: "fid, tid, pid, cost", InsertVals: "source.fid, source.tid, source.pid, source.cost"}
	const want = "[[1 2 7 3] [1 3 1 9] [2 3 8 4]]"
	for _, form := range forms {
		db, err := rdb.Open(rdb.Options{Profile: form.profile})
		if err != nil {
			t.Fatal(err)
		}
		sess := db.Session()
		for _, q := range []string{
			"CREATE TABLE SEG (fid INT, tid INT, pid INT, cost INT)",
			"CREATE TABLE SM (fid INT, tid INT, pid INT, cost INT)",
			"CREATE TABLE C (fid INT, tid INT, pid INT, cost INT)",
			"INSERT INTO SEG (fid, tid, pid, cost) VALUES (1, 2, 1, 5), (1, 3, 1, 9)",
			"INSERT INTO C (fid, tid, pid, cost) VALUES (1, 2, 7, 2), (1, 3, 7, 10), (2, 3, 8, 3)",
		} {
			if _, err := sess.Exec(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		stmts := MergeSelect(form.level, "SELECT c.fid, c.tid, c.pid, c.cost + ? FROM C c", m).Round(form.separate)
		affected, err := Run(stmts, func(s Stmt, args []any) (int64, error) {
			res, err := sess.Exec(s.Text, args...)
			return res.RowsAffected, err
		}, []any{int64(1)}, nil)
		if err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		rows, err := sess.Query("SELECT fid, tid, pid, cost FROM SEG")
		if err != nil {
			t.Fatal(err)
		}
		var got [][]int64
		for _, r := range rows.Data {
			got = append(got, []int64{r[0].I, r[1].I, r[2].I, r[3].I})
		}
		slices.SortFunc(got, func(a, b []int64) int { return slices.Compare(a, b) })
		if fmt.Sprint(got) != want || affected != 2 {
			t.Errorf("%s: rows %v affected %d, want %s affected 2", form.name, got, affected, want)
		}
		sess.Close()
		db.Close()
	}
}
