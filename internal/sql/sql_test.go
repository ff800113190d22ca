package sql

import (
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

// TestParseGroupByHaving: GROUP BY parses; HAVING is pruned (see pruned).
func TestParseGroupByHaving(t *testing.T) {
	sel := parseSelect(t, "SELECT city, COUNT(*) FROM p GROUP BY city")
	if len(sel.GroupBy) != 1 {
		t.Fatalf("group: %+v", sel)
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
	if len(ct.Cols) != 4 || !ct.Cols[0].PrimaryKey || ct.Cols[1].PrimaryKey || ct.Cols[3].Type != record.TInt || ct.Temporary {
		t.Fatalf("create table: %+v", ct)
	}
	st, err = Parse("CREATE TEMPORARY TABLE w (src INT, nid INT)")
	if err != nil {
		t.Fatal(err)
	}
	if ct := st.(*CreateTableStmt); !ct.Temporary || ct.Name != "w" || len(ct.Cols) != 2 {
		t.Fatalf("create temporary table: %+v", ct)
	}
	for _, bad := range []string{"CREATE TEMPORARY INDEX ix ON t (a)", "CREATE TEMPORARY w (a INT)"} {
		if _, err := Parse(bad); err == nil || !strings.Contains(err.Error(), "TABLE") {
			t.Errorf("%s: %v, want an error naming TABLE", bad, err)
		}
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
	if m.Matched == nil || m.Matched.And == nil || len(m.Matched.Sets) != 3 {
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
	if m := st.(*MergeStmt); m.Matched == nil || m.Matched.And != nil || m.NotMatched != nil {
		t.Fatalf("update-only merge: %+v", m)
	}
	mustReject(t, "MERGE INTO a USING b ON (a.k = b.k) WHEN MATCHED THEN DELETE", "DELETE")
	// One WHEN MATCHED arm: a second is refused at its MATCHED.
	mustReject(t, "MERGE INTO a USING b ON (a.k = b.k) WHEN MATCHED AND a.v > b.v THEN UPDATE SET v = b.v "+
		"WHEN MATCHED THEN UPDATE SET w = b.w", "MATCHED")
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
var pruned = readPruned()

// prunedCase is one construct outside the dialect (see pruned).
type prunedCase struct {
	construct, src string
	pos            int
	tok            string
}

// readPruned reads testdata/pruned.txt: a construct a line, its name, pos,
// tok and (Go-quoted) src tab-separated.
func readPruned() (out []prunedCase) {
	for _, line := range testLines("testdata/pruned.txt") {
		f := strings.Split(line, "\t")
		pos, err := strconv.Atoi(f[1])
		src, err2 := strconv.Unquote(f[3])
		if err != nil || err2 != nil {
			panic(fmt.Sprintf("testdata/pruned.txt: %q: %v %v", line, err, err2))
		}
		out = append(out, prunedCase{f[0], src, pos, f[2]})
	}
	return out
}

// testLines returns the lines of a file that are neither empty nor
// comments.
func testLines(name string) (out []string) {
	data, err := os.ReadFile(name)
	if err != nil {
		panic(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out
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

// clientStatements returns the statement texts the FEM clients issue: the
// benchmark ladder's nine (testdata/ladder.txt, from benchmark/ladder.go,
// the module this one cannot import) and core's golden file (one
// "name<TAB>text" per line).
func clientStatements(t testing.TB) []string {
	out := testLines("testdata/ladder.txt")
	for _, line := range testLines("../core/testdata/golden_statements.txt") {
		if _, text, ok := strings.Cut(line, "\t"); ok {
			out = append(out, text)
		}
	}
	if len(out) < 10 {
		t.Fatal("no golden statements read")
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
	// Prim's former frontier pick, a TOP 1 scalar subquery inside an
	// UPDATE: no client issues it any more, the grammar still takes it.
	f.Add("UPDATE TVisited_q0 SET f = ? WHERE f = 0 AND nid = (SELECT TOP 1 nid FROM TVisited_q0 WHERE f = 0 AND d2s = (SELECT MIN(d2s) FROM TVisited_q0 WHERE f = 0))")
	// Reads and writes of TOutSegs through its covering tid index.
	for _, q := range testLines("testdata/segreads.txt") {
		f.Add(q)
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
