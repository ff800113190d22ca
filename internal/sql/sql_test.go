package sql

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/record"
)

// --- lexer -------------------------------------------------------------------

func TestTokenize(t *testing.T) {
	toks, err := Tokenize("SELECT nid, d2s FROM TVisited WHERE f = 0 AND d2s >= 15\n;")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{TokKeyword, TokIdent, TokSymbol, TokIdent, TokKeyword,
		TokIdent, TokKeyword, TokIdent, TokSymbol, TokNumber, TokKeyword,
		TokIdent, TokSymbol, TokNumber, TokSymbol, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("token count %d want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d: kind %v want %v (%v)", i, toks[i].Kind, k, toks[i])
		}
	}
}

func TestTokenizeStrings(t *testing.T) {
	// The dialect has no string literal: a quote is a lexer error at its
	// byte, terminated or not.
	for _, q := range []string{"SELECT 'it''s ok'", "SELECT 'unterminated"} {
		if _, err := Tokenize(q); err == nil || !strings.Contains(err.Error(), `'\''`) || !strings.HasSuffix(err.Error(), "at 7") {
			t.Fatalf("Tokenize(%q): %v", q, err)
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	src := "<= >= <> = < > + - * ( ) , . ? ;"
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range strings.Fields(src) {
		if toks[i].Text != w {
			t.Fatalf("operator %d: %q want %q", i, toks[i].Text, w)
		}
	}
}

func TestTokenizeBadChar(t *testing.T) {
	if _, err := Tokenize("SELECT @x"); err == nil {
		t.Fatal("bad character must fail")
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	toks, _ := Tokenize("select SeLeCt SELECT")
	for _, tok := range toks[:3] {
		if tok.Kind != TokKeyword || tok.Text != "SELECT" {
			t.Fatalf("keyword folding: %v", tok)
		}
	}
}

// --- parser ------------------------------------------------------------------

func parseSelect(t *testing.T, q string) *SelectStmt {
	t.Helper()
	st, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("expected SelectStmt, got %T", st)
	}
	return sel
}

func TestParseSimpleSelect(t *testing.T) {
	sel := parseSelect(t, "SELECT DISTINCT a, b, t.c FROM t WHERE a = 1")
	if len(sel.Items) != 3 || !sel.Distinct {
		t.Fatalf("items: %+v", sel.Items)
	}
	cr := sel.Items[2].(*ColumnRef)
	if cr.Table != "t" || cr.Name != "c" {
		t.Fatalf("qualified ref: %+v", cr)
	}
	if len(sel.From) != 1 || sel.From[0].Table != "t" {
		t.Fatalf("from: %+v", sel.From)
	}
	if w, ok := sel.Where.(*Binary); !ok || w.Op != "=" {
		t.Fatalf("where: %+v", sel.Where)
	}
}

func TestParseTop(t *testing.T) {
	sel := parseSelect(t, "SELECT TOP 1 nid FROM TVisited")
	lit, ok := sel.Top.(*Literal)
	if !ok || lit.Val.I != 1 {
		t.Fatalf("top: %+v", sel.Top)
	}
}

func TestParsePrecedence(t *testing.T) {
	sel := parseSelect(t, "SELECT 1 + 2 * 3")
	b := sel.Items[0].(*Binary)
	if b.Op != "+" {
		t.Fatalf("outer op: %s", b.Op)
	}
	if inner, ok := b.R.(*Binary); !ok || inner.Op != "*" {
		t.Fatalf("precedence broken: %+v", b.R)
	}
	// AND binds tighter than OR.
	sel = parseSelect(t, "SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
	w := sel.Where.(*Binary)
	if w.Op != "OR" {
		t.Fatalf("where root: %s", w.Op)
	}
	if r, ok := w.R.(*Binary); !ok || r.Op != "AND" {
		t.Fatalf("AND/OR precedence: %+v", w.R)
	}
}

func TestParseParams(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t WHERE a = ? AND b = ?")
	conj := sel.Where.(*Binary)
	p1 := conj.L.(*Binary).R.(*Param)
	p2 := conj.R.(*Binary).R.(*Param)
	if p1.Index != 0 || p2.Index != 1 {
		t.Fatalf("param numbering: %d %d", p1.Index, p2.Index)
	}
	_, n, err := ParseStmt("SELECT ? , ?, ?")
	if err != nil || n != 3 {
		t.Fatalf("param count: %d %v", n, err)
	}
}

func TestParseCommaJoin(t *testing.T) {
	sel := parseSelect(t, "SELECT q.nid FROM TVisited q, TEdges out WHERE q.nid = out.fid")
	if len(sel.From) != 2 || sel.From[0].Alias != "q" || sel.From[1].Alias != "out" {
		t.Fatalf("from: %+v", sel.From)
	}
}

// TestParseJoinOn: a join is spelled as a FROM list with its conditions in
// WHERE, which is one AND-tree of conjuncts.
func TestParseJoinOn(t *testing.T) {
	sel := parseSelect(t, "SELECT a.x FROM a, b, c WHERE a.x = b.y AND b.y = c.z AND a.x > 0")
	if len(sel.From) != 3 {
		t.Fatalf("from: %+v", sel.From)
	}
	conj := 0
	var walk func(e Expr)
	walk = func(e Expr) {
		if b, ok := e.(*Binary); ok && b.Op == "AND" {
			walk(b.L)
			walk(b.R)
			return
		}
		conj++
	}
	walk(sel.Where)
	if conj != 3 {
		t.Fatalf("conjuncts: %d", conj)
	}
}

func TestParseDerivedTable(t *testing.T) {
	sel := parseSelect(t, "SELECT nid FROM (SELECT nid, d2s FROM TVisited) tmp (nid, d2s) WHERE d2s = 1")
	if sel.From[0].Sub == nil || sel.From[0].Alias != "tmp" {
		t.Fatalf("derived: %+v", sel.From[0])
	}
	if len(sel.From[0].SubCols) != 2 || sel.From[0].SubCols[1] != "d2s" {
		t.Fatalf("subcols: %+v", sel.From[0].SubCols)
	}
	if _, err := Parse("SELECT x FROM (SELECT 1)"); err == nil {
		t.Fatal("derived table without alias must fail")
	}
}

func TestParseGroupByHaving(t *testing.T) {
	sel := parseSelect(t, "SELECT city, COUNT(*) FROM p GROUP BY city HAVING COUNT(*) > 1")
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatalf("group/having: %+v", sel)
	}
	fc := sel.Items[1].(*FuncCall)
	if fc.Name != "COUNT" || fc.Arg != nil || fc.Window != nil {
		t.Fatalf("count(*): %+v", fc)
	}
}

func TestParseWindow(t *testing.T) {
	sel := parseSelect(t, `SELECT out.tid, ROW_NUMBER() OVER (PARTITION BY out.tid, q.src ORDER BY out.cost + q.d2s) FROM TEdges out`)
	fc := sel.Items[1].(*FuncCall)
	if fc.Window == nil || len(fc.Window.PartitionBy) != 2 || len(fc.Window.OrderBy) != 1 {
		t.Fatalf("window: %+v", fc.Window)
	}
	if _, ok := fc.Window.OrderBy[0].(*Binary); !ok {
		t.Fatalf("window order key: %+v", fc.Window.OrderBy[0])
	}
}

func TestParseSubqueryAndExists(t *testing.T) {
	sel := parseSelect(t, "SELECT nid FROM v WHERE d2s = (SELECT MIN(d2s) FROM v WHERE f = 0)")
	cmp := sel.Where.(*Binary)
	if _, ok := cmp.R.(*Subquery); !ok {
		t.Fatalf("scalar subquery: %T", cmp.R)
	}
	sel = parseSelect(t, "SELECT nid FROM v WHERE NOT EXISTS (SELECT nid FROM w WHERE w.nid = v.nid)")
	ex := sel.Where.(*Exists)
	if !ex.Not {
		t.Fatal("NOT EXISTS flag")
	}
	sel = parseSelect(t, "SELECT nid FROM v WHERE EXISTS (SELECT 1 FROM w)")
	ex = sel.Where.(*Exists)
	if ex.Not {
		t.Fatal("EXISTS flag")
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("INSERT INTO t (a, b) VALUES (1, 2), (?, 3)")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Cols) != 2 {
		t.Fatalf("insert: %+v", ins)
	}
	if lit := ins.Rows[0][1].(*Literal); lit.Val != record.Int(2) {
		t.Fatalf("integer literal: %+v", lit)
	}
	if _, ok := ins.Rows[1][0].(*Param); !ok {
		t.Fatalf("parameter: %+v", ins.Rows[1][0])
	}
	st, err = Parse("INSERT INTO t (a) SELECT x FROM s WHERE x > 0")
	if err != nil {
		t.Fatal(err)
	}
	if st.(*InsertStmt).Select == nil {
		t.Fatal("insert-select")
	}
}

func TestParseUpdate(t *testing.T) {
	st, err := Parse("UPDATE TVisited SET f = 1, d2s = d2s + 1 WHERE nid = ?")
	if err != nil {
		t.Fatal(err)
	}
	up := st.(*UpdateStmt)
	if len(up.Sets) != 2 || up.Where == nil || up.From != nil {
		t.Fatalf("update: %+v", up)
	}
	st, err = Parse("UPDATE v SET d2s = s.cost FROM TExpand s WHERE v.nid = s.nid")
	if err != nil {
		t.Fatal(err)
	}
	up = st.(*UpdateStmt)
	if up.From == nil || up.From.Alias != "s" {
		t.Fatalf("update-from: %+v", up)
	}
}

func TestParseDeleteTruncateDrop(t *testing.T) {
	st, err := Parse("DELETE FROM t WHERE a = 1")
	if err != nil || st.(*DeleteStmt).Where == nil {
		t.Fatalf("delete: %v %v", st, err)
	}
	// The whole-table form is how clients empty a table; there is no TRUNCATE.
	st, err = Parse("DELETE FROM t")
	if err != nil || st.(*DeleteStmt).Where != nil {
		t.Fatalf("delete all: %v %v", st, err)
	}
	st, err = Parse("DROP TABLE t")
	if err != nil || st.(*DropTableStmt).Name != "t" {
		t.Fatalf("drop: %v %v", st, err)
	}
}

func TestParseCreate(t *testing.T) {
	st, err := Parse("CREATE TABLE v (nid INT PRIMARY KEY, d2s INT, p2s INT, f INT)")
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTableStmt)
	if len(ct.Cols) != 4 || !ct.Cols[0].PrimaryKey || ct.Cols[1].PrimaryKey || ct.Cols[3].Type != record.TInt {
		t.Fatalf("create table: %+v", ct)
	}
	st, err = Parse("CREATE UNIQUE CLUSTERED INDEX ix ON t (a, b)")
	if err != nil {
		t.Fatal(err)
	}
	ci := st.(*CreateIndexStmt)
	if !ci.Unique || !ci.Clustered || len(ci.Cols) != 2 {
		t.Fatalf("create index: %+v", ci)
	}
}

func TestParseMerge(t *testing.T) {
	st, err := Parse(`MERGE INTO TVisited AS target USING (
		SELECT nid, par, cost FROM (
			SELECT out.tid, q.nid, out.cost + q.d2s,
				ROW_NUMBER() OVER (PARTITION BY out.tid ORDER BY out.cost + q.d2s)
			FROM TVisited q, TEdges out
			WHERE q.nid = out.fid AND q.f = 2 AND out.cost + q.d2s + ? < ?
		) tmp (nid, par, cost, rn) WHERE rn = 1
	) AS source (nid, par, cost) ON (target.nid = source.nid)
	WHEN MATCHED AND target.d2s > source.cost THEN UPDATE SET d2s = source.cost, p2s = source.par, f = 0
	WHEN NOT MATCHED THEN INSERT (nid, d2s, p2s, f) VALUES (source.nid, source.cost, source.par, 0)`)
	if err != nil {
		t.Fatal(err)
	}
	m := st.(*MergeStmt)
	if m.Target != "TVisited" || m.TargetAlias != "target" {
		t.Fatalf("merge target: %+v", m)
	}
	if m.Source.Sub == nil || len(m.Source.SubCols) != 3 {
		t.Fatalf("merge source: %+v", m.Source)
	}
	if len(m.Matched) != 1 || m.Matched[0].And == nil || len(m.Matched[0].Sets) != 3 {
		t.Fatalf("matched branch: %+v", m.Matched)
	}
	if m.NotMatched == nil || len(m.NotMatched.Cols) != 4 {
		t.Fatalf("not-matched branch: %+v", m.NotMatched)
	}
}

// TestParseMergeDelete: a matched row can be updated, not deleted.
func TestParseMergeDelete(t *testing.T) {
	st, err := Parse("MERGE INTO a USING b ON (a.k = b.k) WHEN MATCHED THEN UPDATE SET v = b.v")
	if err != nil {
		t.Fatal(err)
	}
	if m := st.(*MergeStmt); len(m.Matched) != 1 || m.Matched[0].And != nil || m.NotMatched != nil {
		t.Fatalf("update-only merge: %+v", m)
	}
	mustReject(t, "MERGE INTO a USING b ON (a.k = b.k) WHEN MATCHED THEN DELETE", "DELETE")
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC x",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"INSERT INTO",
		"INSERT INTO t VALUES",
		"UPDATE t",
		"UPDATE t SET",
		"DELETE t",
		"CREATE TABLE t",
		"CREATE TABLE t (a BOGUS)",
		"MERGE INTO t USING s ON (t.k = s.k)",
		"SELECT a FROM t trailing garbage (",
		"SELECT (SELECT 1",
		"SELECT a FROM t GROUP BY",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParseTrailingSemicolonAndGarbage(t *testing.T) {
	if _, err := Parse("SELECT 1;"); err != nil {
		t.Fatalf("trailing semicolon: %v", err)
	}
	if _, err := Parse("SELECT 1; SELECT 2"); err == nil {
		t.Fatal("two statements must fail")
	}
}

// TestParseNotAndUnary: NOT negates EXISTS and nothing else, and minus is
// the binary operator only.
func TestParseNotAndUnary(t *testing.T) {
	sel := parseSelect(t, "SELECT a - 1 FROM t WHERE NOT EXISTS (SELECT b FROM u WHERE u.b = t.a)")
	if b, ok := sel.Items[0].(*Binary); !ok || b.Op != "-" {
		t.Fatalf("binary minus: %+v", sel.Items[0])
	}
	if ex, ok := sel.Where.(*Exists); !ok || !ex.Not {
		t.Fatalf("NOT EXISTS: %+v", sel.Where)
	}
	mustReject(t, "SELECT a FROM t WHERE NOT f = 1", "f")
	mustReject(t, "SELECT -a FROM t", "-")
}

// TestParseIsNullBetweenIn: ranges and sets are spelled with comparisons,
// AND and OR.
func TestParseIsNullBetweenIn(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t WHERE b >= 1 AND b <= 5 AND (c = 1 OR c = ? OR c = 3)")
	conj := sel.Where.(*Binary)
	if or, ok := conj.R.(*Binary); !ok || or.Op != "OR" || conj.Op != "AND" {
		t.Fatalf("set as OR-chain: %+v", conj.R)
	}
	if rng, ok := conj.L.(*Binary); !ok || rng.L.(*Binary).Op != ">=" || rng.R.(*Binary).Op != "<=" {
		t.Fatalf("range as two comparisons: %+v", conj.L)
	}
	mustReject(t, "SELECT a FROM t WHERE a IS NOT NULL", "IS")
	mustReject(t, "SELECT a FROM t WHERE b BETWEEN 1 AND 5", "BETWEEN")
	mustReject(t, "SELECT a FROM t WHERE c IN (1, ?, 3)", "IN")
}

func TestPaperListing2Statements(t *testing.T) {
	// Every statement shape from the paper's Listing 2/3/4 must parse.
	statements := []string{
		"INSERT INTO TVisited (nid, d2s, p2s, f) VALUES (?, 0, ?, 0)",
		"SELECT TOP 1 nid FROM TVisited WHERE f = 0 AND d2s = (SELECT MIN(d2s) FROM TVisited WHERE f = 0)",
		"SELECT nid, d2s, p2s, f FROM TVisited WHERE f = 1 AND nid = ?", // the listing's SELECT *, columns spelled out
		"UPDATE TVisited SET f = 1 WHERE nid = ?",
		"SELECT p2s FROM TVisited WHERE nid = ?",
		"UPDATE TVisited SET f = 2 WHERE (d2s <= ? OR d2s = (SELECT MIN(d2s) FROM TVisited WHERE f = 0)) AND f = 0",
		"UPDATE TVisited SET f = 1 WHERE f = 2",
		"SELECT MIN(d2s) FROM TVisited WHERE f = 0",
		"SELECT MIN(d2s + d2t) FROM TVisited",
		"SELECT nid FROM TVisited WHERE d2s + d2t = ?",
	}
	for _, q := range statements {
		if _, err := Parse(q); err != nil {
			t.Errorf("paper statement failed to parse: %v\n  %s", err, q)
		}
	}
}

func TestParamIndexingAcrossClauses(t *testing.T) {
	st, err := Parse("SELECT TOP ? a FROM t WHERE b = ? AND (c = ? OR c = ?)")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	if sel.Top.(*Param).Index != 0 {
		t.Fatal("TOP param should be first")
	}
}

func TestErrorMessagesCarryPosition(t *testing.T) {
	_, err := Parse("SELECT a FROM t WHERE !")
	if err == nil || !strings.Contains(err.Error(), "at 22") {
		t.Fatalf("lexer error should carry a byte position: %v", err)
	}
	_, err = Parse("SELECT a FROM WHERE")
	if err == nil || !strings.Contains(err.Error(), "byte") {
		t.Fatalf("parser error should carry a byte position: %v", err)
	}
}

// --- the boundary of the dialect -----------------------------------------------

// pruned lists what the dialect leaves out: for each construct a statement
// using it, the byte the error must point at and the token it must name
// (for a word that is no longer reserved, such as LIMIT or IN, that is the
// first token the grammar cannot place). Nothing a client issues needs any
// of them — CI's client-reach step holds the engine to that.
var pruned = []struct {
	construct, src string
	pos            int
	tok            string
}{
	{"statement-level ORDER BY", "SELECT a FROM t ORDER BY a", 16, "ORDER"},
	{"LIMIT", "SELECT a FROM t LIMIT 5", 22, "5"},
	{"SELECT *", "SELECT * FROM t", 7, "*"},
	{"item alias with AS", "SELECT a AS b FROM t", 9, "AS"},
	{"item alias without AS", "SELECT a b FROM t", 9, "b"},
	{"UPDATE alias", "UPDATE t x SET a = 1", 9, "x"},
	{"UPDATE alias with AS", "UPDATE t AS x SET a = 1", 9, "AS"},
	{"JOIN ... ON", "SELECT a FROM t JOIN u ON t.a = u.a", 21, "u"},
	{"INNER JOIN", "SELECT a FROM t INNER JOIN u ON t.a = u.a", 22, "JOIN"},
	{"derived table after the first FROM entry", "SELECT a FROM t, (SELECT b FROM u) d WHERE a = b", 17, "("},
	{"TRUNCATE", "TRUNCATE TABLE t", 0, "TRUNCATE"},
	{"NOT before a comparison", "SELECT a FROM t WHERE NOT a = 1", 26, "a"},
	{"unary minus", "SELECT a FROM t WHERE a = -1", 26, "-"},
	{"IS NULL", "SELECT a FROM t WHERE a IS NULL", 24, "IS"},
	{"IS NOT NULL", "SELECT a FROM t WHERE a IS NOT NULL", 24, "IS"},
	{"IN list", "SELECT a FROM t WHERE a IN (1, 2)", 24, "IN"},
	{"NOT IN list", "SELECT a FROM t WHERE a NOT IN (1, 2)", 24, "NOT"},
	{"BETWEEN", "SELECT a FROM t WHERE a BETWEEN 1 AND 2", 24, "BETWEEN"},
	{"string literal", "SELECT a FROM t WHERE a = 'x'", 26, "'"},
	{"float literal", "SELECT a FROM t WHERE a = 1.5", 27, "."},
	{"NULL literal", "INSERT INTO t (a) VALUES (NULL)", 26, "NULL"},
	{"division", "SELECT a / 2 FROM t", 9, "/"},
	{"!= for <>", "SELECT a FROM t WHERE a != 1", 24, "!"},
	{"line comment", "SELECT a -- the key\nFROM t", 10, "-"},
	{"MERGE ... THEN DELETE", "MERGE INTO t USING s ON (t.k = s.k) WHEN MATCHED THEN DELETE", 54, "DELETE"},
	{"MERGE ... NOT MATCHED BY TARGET", "MERGE INTO t USING s ON (t.k = s.k) WHEN NOT MATCHED BY TARGET THEN INSERT (k) VALUES (s.k)", 53, "BY"},
	{"MERGE ... NOT MATCHED AND", "MERGE INTO t USING s ON (t.k = s.k) WHEN NOT MATCHED AND s.k > 0 THEN INSERT (k) VALUES (s.k)", 53, "AND"},
	{"MERGE ... INSERT without a column list", "MERGE INTO t USING s ON (t.k = s.k) WHEN NOT MATCHED THEN INSERT VALUES (s.k)", 65, "VALUES"},
	{"INSERT without a column list", "INSERT INTO t VALUES (1)", 14, "VALUES"},
	{"SUM", "SELECT SUM(a) FROM t", 7, "SUM"},
	{"AVG", "SELECT AVG(a) FROM t", 7, "AVG"},
	{"COUNT of an expression", "SELECT COUNT(a) FROM t", 13, "a"},
	{"RANK", "SELECT a, RANK() OVER (ORDER BY a) FROM t", 10, "RANK"},
	{"DESC in a window order", "SELECT ROW_NUMBER() OVER (ORDER BY a DESC) FROM t", 37, "DESC"},
	{"ASC in a window order", "SELECT ROW_NUMBER() OVER (ORDER BY a ASC) FROM t", 37, "ASC"},
	{"FLOAT column", "CREATE TABLE t (a FLOAT)", 18, "FLOAT"},
	{"TEXT column", "CREATE TABLE t (a INT, b TEXT)", 25, "TEXT"},
	{"VARCHAR column", "CREATE TABLE t (a VARCHAR(10))", 18, "VARCHAR"},
	{"INTEGER for INT", "CREATE TABLE t (a INTEGER)", 18, "INTEGER"},
}

func TestPrunedConstructsRejected(t *testing.T) {
	for _, c := range pruned {
		t.Run(c.construct, func(t *testing.T) {
			if !strings.HasPrefix(c.src[c.pos:], c.tok) {
				t.Fatalf("table row is off: byte %d of %q does not start %q", c.pos, c.src, c.tok)
			}
			err := mustReject(t, c.src, c.tok)
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("near byte %d)", c.pos)) && !strings.HasSuffix(msg, fmt.Sprintf(" at %d", c.pos)) {
				t.Fatalf("Parse(%q): error does not point at byte %d: %v", c.src, c.pos, err)
			}
		})
	}
}

// mustReject checks that src is a parse error quoting tok (as the parser
// quotes a token, or as the lexer quotes a byte).
func mustReject(t *testing.T, src, tok string) error {
	t.Helper()
	st, err := Parse(src)
	if err == nil {
		t.Fatalf("Parse(%q) = %T, want an error", src, st)
	}
	if msg := err.Error(); !strings.Contains(msg, strconv.Quote(tok)) && !strings.Contains(msg, strconv.QuoteRune(rune(tok[0]))) {
		t.Fatalf("Parse(%q): error does not name %q: %v", src, tok, err)
	}
	return err
}

// ladderSQL is the benchmark ladder's nine statement texts
// (benchmark/ladder.go), the module this one cannot import.
var ladderSQL = []string{
	"UPDATE BVisited SET f = 2 WHERE f = 0 AND d2s = (SELECT MIN(d2s) FROM BVisited WHERE f = 0)",
	"INSERT INTO BExpand (nid, par, cost) SELECT nid, par, cost FROM (SELECT out.tid, q.nid, out.cost + q.d2s, ROW_NUMBER() OVER (PARTITION BY out.tid ORDER BY out.cost + q.d2s) FROM BVisited q, BEdges out WHERE q.nid = out.fid AND q.f = 2) tmp (nid, par, cost, rn) WHERE rn = 1",
	"MERGE INTO BVisited AS target USING BExpand AS source ON (target.nid = source.nid) WHEN MATCHED AND target.d2s > source.cost THEN UPDATE SET d2s = source.cost, p2s = source.par, f = 0 WHEN NOT MATCHED THEN INSERT (nid, d2s, p2s, f, d2t, p2t, b) VALUES (source.nid, source.cost, source.par, 0, ?, ?, 1)",
	"SELECT MIN(d2s) FROM BVisited WHERE f = 0",
	"SELECT d2s FROM BVisited WHERE nid = ?",
	"INSERT INTO BVisited (nid, d2s, p2s, f, d2t, p2t, b) VALUES (?, ?, ?, ?, ?, ?, 1)",
	"INSERT INTO BEdges (fid, tid, cost) VALUES (?, ?, ?)",
	"DELETE FROM BVisited",
	"DELETE FROM BExpand",
}

// clientStatements returns the statement texts the FEM clients issue: core's
// golden file (one "name<TAB>text" per line) and the ladder's.
func clientStatements(t testing.TB) []string {
	f, err := os.Open("../core/testdata/golden_statements.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := append([]string(nil), ladderSQL...)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if _, text, ok := strings.Cut(sc.Text(), "\t"); ok {
			out = append(out, text)
		}
	}
	if err := sc.Err(); err != nil || len(out) == len(ladderSQL) {
		t.Fatalf("no golden statements read: %v", err)
	}
	return out
}

// TestClientStatementsParse: the other side of the boundary.
func TestClientStatementsParse(t *testing.T) {
	for _, q := range clientStatements(t) {
		if _, err := Parse(q); err != nil {
			t.Errorf("client statement does not parse: %v\n  %s", err, q)
		}
	}
}

// FuzzParse: no input panics the parser, and parsing is a function of the
// text (same tree, same parameter count, same error, twice).
func FuzzParse(f *testing.F) {
	for _, q := range clientStatements(f) {
		f.Add(q)
	}
	for _, c := range pruned {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st1, n1, err1 := ParseStmt(src)
		st2, n2, err2 := ParseStmt(src)
		if n1 != n2 || !reflect.DeepEqual(st1, st2) || fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("two parses of %q differ: (%v, %d, %v) vs (%v, %d, %v)", src, st1, n1, err1, st2, n2, err2)
		}
		if (st1 == nil) == (err1 == nil) {
			t.Fatalf("Parse(%q) = (%v, %v): want exactly one of statement and error", src, st1, err1)
		}
	})
}
