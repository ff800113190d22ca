// Package fem renders the paper's E- and M-operators (§3.2) as SQL, in one
// place. The E-operator joins the frontier rows of a working table to an
// edge relation and keeps the cheapest offer per key; the M-operator updates
// the working-table rows an offer matches and a condition selects, and
// inserts the offers that match nothing. A client — the FEM loop (every
// search, reachability, Prim's MST), the index-build sweep, SegTable
// maintenance — describes its round with an Expand and a Merge (or a
// SELECT of its own for the Expand) and gets back the statements to run at
// the engine's SQL level; docs/ARCHITECTURE.md §"FEM framework" tabulates
// the forms per level. The package issues nothing itself: Run hands each
// statement, tagged with its operator, to the caller's exec function.
package fem

import (
	"strings"

	"repro/internal/rdb"
)

// Level is the SQL feature level statements are rendered for: MergeWindow
// has SQL:2003 window functions and SQL:2008 MERGE; Window lacks MERGE, so
// the M-operator becomes UPDATE ... FROM plus INSERT ... WHERE NOT EXISTS;
// Plain lacks both, and the E-operator becomes aggregate + join-back.
type Level int

const (
	MergeWindow Level = iota
	Window
	Plain
)

// LevelOf resolves a database profile's level. A profile with MERGE but no
// window functions runs at Plain.
func LevelOf(p rdb.Profile) Level {
	switch {
	case !p.SupportsWindow:
		return Plain
	case p.SupportsMerge:
		return MergeWindow
	}
	return Window
}

// Op says which operator a statement renders, for the caller's accounting:
// E fills the staging tables, M merges them into the working table, EM is
// the fused MERGE that does both.
type Op int

const (
	E Op = iota
	M
	EM
)

// Stmt is one statement of a round. src and ins say whether it binds the
// source's placeholders (frontier and bound, or the caller's SELECT) and
// the insert list's, in that order.
type Stmt struct {
	Text     string
	Op       Op
	src, ins bool
}

// Branch is the WHEN MATCHED arm: the rows condition When selects get Set,
// both written over the aliases target (working table) and source (offers).
type Branch struct{ When, Set string }

// Merge specifies an M-operator. No table may be named like an alias the
// statements use (q, out, ec, tmp, s, v, source, target).
type Merge struct {
	Table   string   // working table
	Key     []string // its key columns, which the offers carry under the same names
	Carry   []string // the offers' other columns; Operators sets (par, cost)
	Matched Branch   // relaxes the rows an offer matches
	// InsertCols and InsertVals (over source, placeholders allowed) add
	// the unmatched offers.
	InsertCols, InsertVals string
	Stage                  string // staging table, columns Key then Carry
}

// Expand specifies an E-operator over the Merge's working table, aliased q,
// and an edge relation (fid, tid, cost), aliased out. The last key column
// names a node: frontier rows offer their neighbours a row under it, the
// other key columns carried over, the frontier node as par.
type Expand struct {
	Edges     string
	Forward   bool   // follow out.fid -> out.tid, else the reverse
	Cost      string // the offer's cost, e.g. "out.cost + q.d2s"
	Where     string // frontier and bound predicates
	StageCost string // Plain's second staging table, columns Key then cost
}

// Ops is one round rendered at one level. Stage (E into staging) and Apply
// (M from staging) are exported for callers that read the staged offers in
// between or stage offers of their own.
type Ops struct {
	Stage, Apply  []Stmt
	fused, staged []Stmt
}

// Round returns the statements of one E+M round: the fused MERGE where the
// level has one and separate is false, else Stage then Apply.
func (o Ops) Round(separate bool) []Stmt {
	if o.fused != nil && !separate {
		return o.fused
	}
	return o.staged
}

// Run executes stmts in order through exec, binding src and ins where a
// statement takes them, and returns how many working-table rows changed.
func Run(stmts []Stmt, exec func(s Stmt, args []any) (int64, error), src, ins []any) (int64, error) {
	var affected int64
	for _, s := range stmts {
		var args []any
		switch {
		case s.src && s.ins:
			args = append(src[:len(src):len(src)], ins...)
		case s.src:
			args = src
		case s.ins:
			args = ins
		}
		n, err := exec(s, args)
		if err != nil {
			return 0, err
		}
		if s.Op != E {
			affected += n
		}
	}
	return affected, nil
}

// The sign protocol of every client's flag column (f, or the backward
// search's b): 0 = candidate, 1 = not a candidate (an insert sentinel or a
// prune), n >= 2 = taken by round n-1. F stamps the candidates it selects,
// E reads the frontier by the stamp, and nothing un-marks it (Listing 4(3)
// has no statement): every other predicate asks "= 0", which a stale stamp
// fails like a 1, and M re-opens an improved row to 0 whatever it held.
// Only Stamp yields a value above 1.

// Stamp is the sign value round k's (1-based) frontier carries.
func Stamp(k int64) int64 { return k + 1 }

// MarkFrontier is the head of every F-operator: set sign to the stamp, the
// first parameter, on table's candidates; the rule follows as " AND ...".
func MarkFrontier(table, sign string) string {
	return "UPDATE " + table + " SET " + sign + " = ? WHERE " + sign + " = 0"
}

// Operators renders the round that expands x and merges the offers by m.
func Operators(l Level, x Expand, m Merge) Ops {
	m.Carry = []string{"par", "cost"}
	carried, node := m.Key[:len(m.Key)-1], m.Key[len(m.Key)-1]
	from, to := "fid", "tid"
	if !x.Forward {
		from, to = "tid", "fid"
	}
	offer := strings.Join(append(qualify("q", carried), "out."+to), ", ")
	join := "FROM " + m.Table + " q, " + x.Edges + " out"
	where := " WHERE q." + node + " = out." + from + " AND " + x.Where
	if l != Plain {
		// Cheapest offer per key by ROW_NUMBER, which carries the parent
		// along without a second join.
		return m.ops(l, "SELECT "+m.cols()+" FROM (SELECT "+offer+", q."+node+", "+x.Cost+", "+
			"ROW_NUMBER() OVER (PARTITION BY "+offer+" ORDER BY "+x.Cost+") "+join+where+
			") tmp ("+m.cols()+", rn) WHERE rn = 1")
	}
	// Pre-2003: the minimal cost per key, then a join back for a parent
	// achieving it (§3.3 on why the direct translation is verbose and slow).
	ecKey := strings.Join(qualify("ec", m.Key), ", ")
	back := " AND ec." + node + " = out." + to + " AND " + x.Cost + " = ec.cost"
	for _, k := range carried {
		back = " AND ec." + k + " = q." + k + back
	}
	return m.ops(l, "SELECT "+ecKey+", MIN(q."+node+"), ec.cost "+join+", "+x.StageCost+" ec"+
		where+back+" GROUP BY "+ecKey+", ec.cost",
		Stmt{Text: "DELETE FROM " + x.StageCost},
		Stmt{Text: "INSERT INTO " + x.StageCost + " (" + strings.Join(m.Key, ", ") + ", cost) " +
			"SELECT " + offer + ", MIN(" + x.Cost + ") " + join + where + " GROUP BY " + offer, src: true})
}

// MergeSelect renders the round that merges the rows of the caller's
// SELECT — m's key and carry columns, in order, no window function — by m.
func MergeSelect(l Level, sel string, m Merge) Ops { return m.ops(l, sel) }

// ops renders the round that merges the offers sel yields; the prep
// statements run between the staging table's clear and its fill from sel.
func (m Merge) ops(l Level, sel string, prep ...Stmt) Ops {
	o := Ops{Stage: append(append([]Stmt{{Text: "DELETE FROM " + m.Stage}}, prep...),
		Stmt{Text: "INSERT INTO " + m.Stage + " (" + m.cols() + ") " + sel, src: true})}
	if l == MergeWindow {
		o.fused = []Stmt{{Text: m.merge("(" + sel + ") AS source (" + m.cols() + ")"), Op: EM, src: true, ins: true}}
		o.Apply = []Stmt{{Text: m.merge(m.Stage + " AS source"), Op: M, ins: true}}
	} else {
		alias := strings.NewReplacer("target.", m.Table+".", "source.", "s.")
		o.Apply = []Stmt{{Op: M, Text: "UPDATE " + m.Table + " SET " + alias.Replace(m.Matched.Set) +
			" FROM " + m.Stage + " s WHERE " + m.onKey(m.Table, "s") + " AND " + alias.Replace(m.Matched.When)},
			{Op: M, ins: true, Text: "INSERT INTO " + m.Table + " (" + m.InsertCols + ") " +
				"SELECT " + alias.Replace(m.InsertVals) + " FROM " + m.Stage + " s WHERE NOT EXISTS (" +
				"SELECT " + m.Key[0] + " FROM " + m.Table + " v WHERE " + m.onKey("v", "s") + ")"}}
	}
	o.staged = append(o.Stage[:len(o.Stage):len(o.Stage)], o.Apply...)
	return o
}

// merge renders the MERGE of the offers `using` names.
func (m Merge) merge(using string) string {
	return "MERGE INTO " + m.Table + " AS target USING " + using + " ON (" + m.onKey("target", "source") + ")" +
		" WHEN MATCHED AND " + m.Matched.When + " THEN UPDATE SET " + m.Matched.Set +
		" WHEN NOT MATCHED THEN INSERT (" + m.InsertCols + ") VALUES (" + m.InsertVals + ")"
}

// cols lists the offers' columns.
func (m Merge) cols() string {
	return strings.Join(append(m.Key[:len(m.Key):len(m.Key)], m.Carry...), ", ")
}

// onKey equates the key columns of two aliases.
func (m Merge) onKey(a, b string) string {
	eq := make([]string, len(m.Key))
	for i, k := range m.Key {
		eq[i] = a + "." + k + " = " + b + "." + k
	}
	return strings.Join(eq, " AND ")
}

func qualify(alias string, cols []string) []string {
	out := make([]string, len(cols), len(cols)+1)
	for i, c := range cols {
		out[i] = alias + "." + c
	}
	return out
}
