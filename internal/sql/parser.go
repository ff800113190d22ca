package sql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/record"
)

// Parser turns SQL text into an AST.
type Parser struct {
	toks   []Token
	pos    int
	params int
}

// Parse parses one statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	st, _, err := ParseStmt(src)
	return st, err
}

// ParseStmt parses one statement and also reports the number of ?
// placeholders it contains, so callers can validate bound arguments.
func ParseStmt(src string) (Statement, int, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, 0, err
	}
	p := &Parser{toks: toks}
	st, err := p.parseStatement()
	if err != nil {
		return nil, 0, err
	}
	p.acceptSymbol(";")
	if p.peek().Kind != TokEOF {
		return nil, 0, p.errf("trailing input starting at %q", p.peek().Text)
	}
	return st, p.params, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

// errf reports a syntax error at the token the parser is looking at.
func (p *Parser) errf(format string, args ...any) error {
	return errAt(p.peek(), format, args...)
}

func errAt(t Token, format string, args ...any) error {
	return fmt.Errorf("sql: %s (near byte %d)", fmt.Sprintf(format, args...), t.Pos)
}

func (p *Parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.next()
		return true
	}
	return false
}

// expectKeywords consumes the given keywords in order.
func (p *Parser) expectKeywords(kws ...string) error {
	for _, kw := range kws {
		if !p.acceptKeyword(kw) {
			return p.errf("expected %s, got %q", kw, p.peek().Text)
		}
	}
	return nil
}

func (p *Parser) isSymbol(s string) bool {
	t := p.peek()
	return t.Kind == TokSymbol && t.Text == s
}

func (p *Parser) acceptSymbol(s string) bool {
	if p.isSymbol(s) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errf("expected %q, got %q", s, p.peek().Text)
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	// KEY is only reserved inside PRIMARY KEY; allow it as an identifier.
	if t.Kind == TokIdent || (t.Kind == TokKeyword && t.Text == "KEY") {
		p.next()
		return t.Text, nil
	}
	return "", p.errf("expected identifier, got %q", t.Text)
}

// parseIdentList parses "(" ident { "," ident } ")".
func (p *Parser) parseIdentList() ([]string, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		if !p.acceptSymbol(",") {
			return out, p.expectSymbol(")")
		}
	}
}

// parseExprList parses expr { "," expr }.
func (p *Parser) parseExprList() ([]Expr, error) {
	var out []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.acceptSymbol(",") {
			return out, nil
		}
	}
}

// parseParenExprList parses "(" expr { "," expr } ")".
func (p *Parser) parseParenExprList() ([]Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	out, err := p.parseExprList()
	if err != nil {
		return nil, err
	}
	return out, p.expectSymbol(")")
}

// parseAlias parses an optional [AS] ident.
func (p *Parser) parseAlias() (string, error) {
	if p.acceptKeyword("AS") {
		return p.expectIdent()
	}
	if p.peek().Kind == TokIdent {
		return p.next().Text, nil
	}
	return "", nil
}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("CREATE"):
		return p.parseCreate()
	case p.isKeyword("DROP"):
		return p.parseDrop()
	case p.isKeyword("MERGE"):
		return p.parseMerge()
	}
	return nil, p.errf("expected statement, got %q", p.peek().Text)
}

// --- SELECT -----------------------------------------------------------------

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeywords("SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{}
	var err error
	if p.acceptKeyword("TOP") {
		if st.Top, err = p.parsePrimary(); err != nil {
			return nil, err
		}
	}
	st.Distinct = p.acceptKeyword("DISTINCT")
	if st.Items, err = p.parseExprList(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("FROM") {
		for {
			if len(st.From) > 0 && p.isSymbol("(") {
				return nil, p.errf("expected table name, got %q: a derived table must come first in FROM", "(")
			}
			tr, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			st.From = append(st.From, tr)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeywords("BY"); err != nil {
			return nil, err
		}
		if st.GroupBy, err = p.parseExprList(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// parseTableRef parses a table name or a parenthesized query, its alias
// (required for a query) and an optional derived-column list.
func (p *Parser) parseTableRef() (*TableRef, error) {
	tr := &TableRef{}
	var err error
	if p.acceptSymbol("(") {
		if tr.Sub, err = p.parseSelect(); err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	} else if tr.Table, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if tr.Alias, err = p.parseAlias(); err != nil {
		return nil, err
	}
	if tr.Sub != nil && tr.Alias == "" {
		return nil, p.errf("derived table requires an alias")
	}
	if p.isSymbol("(") && tr.Alias != "" {
		if tr.SubCols, err = p.parseIdentList(); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// --- INSERT / UPDATE / DELETE ------------------------------------------------

func (p *Parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKeywords("INSERT", "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	if st.Cols, err = p.parseIdentList(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("VALUES") {
		for {
			row, err := p.parseParenExprList()
			if err != nil {
				return nil, err
			}
			st.Rows = append(st.Rows, row)
			if !p.acceptSymbol(",") {
				return st, nil
			}
		}
	}
	if !p.isKeyword("SELECT") {
		return nil, p.errf("expected VALUES or SELECT in INSERT, got %q", p.peek().Text)
	}
	st.Select, err = p.parseSelect()
	return st, err
}

func (p *Parser) parseUpdate() (*UpdateStmt, error) {
	if err := p.expectKeywords("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: name}
	if err := p.expectKeywords("SET"); err != nil {
		return nil, err
	}
	if st.Sets, err = p.parseSetList(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("FROM") {
		if st.From, err = p.parseTableRef(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *Parser) parseSetList() ([]SetClause, error) {
	var sets []SetClause
	for {
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sets = append(sets, SetClause{Col: c, Val: e})
		if !p.acceptSymbol(",") {
			return sets, nil
		}
	}
}

func (p *Parser) parseDelete() (*DeleteStmt, error) {
	if err := p.expectKeywords("DELETE", "FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: name}
	if p.acceptKeyword("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// --- DDL ----------------------------------------------------------------------

func (p *Parser) parseCreate() (Statement, error) {
	if err := p.expectKeywords("CREATE"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("TEMPORARY") {
		if err := p.expectKeywords("TABLE"); err != nil {
			return nil, err
		}
		return p.parseCreateTable(true)
	}
	if p.acceptKeyword("TABLE") {
		return p.parseCreateTable(false)
	}
	st := &CreateIndexStmt{Unique: p.acceptKeyword("UNIQUE"), Clustered: p.acceptKeyword("CLUSTERED")}
	if !p.acceptKeyword("INDEX") {
		return nil, p.errf("expected TABLE or [UNIQUE] [CLUSTERED] INDEX after CREATE, got %q", p.peek().Text)
	}
	var err error
	if st.Name, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.expectKeywords("ON"); err != nil {
		return nil, err
	}
	if st.Table, err = p.expectIdent(); err != nil {
		return nil, err
	}
	st.Cols, err = p.parseIdentList()
	return st, err
}

func (p *Parser) parseCreateTable(temp bool) (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Name: name, Temporary: temp}
	for {
		cn, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if !p.acceptKeyword("INT") {
			return nil, p.errf("expected column type INT, got %q", p.peek().Text)
		}
		cd := ColumnDef{Name: cn, Type: record.TInt}
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeywords("KEY"); err != nil {
				return nil, err
			}
			cd.PrimaryKey = true
		}
		st.Cols = append(st.Cols, cd)
		if !p.acceptSymbol(",") {
			return st, p.expectSymbol(")")
		}
	}
}

func (p *Parser) parseDrop() (Statement, error) {
	if err := p.expectKeywords("DROP", "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropTableStmt{Name: name}, nil
}

// --- MERGE ---------------------------------------------------------------------

func (p *Parser) parseMerge() (*MergeStmt, error) {
	if err := p.expectKeywords("MERGE"); err != nil {
		return nil, err
	}
	p.acceptKeyword("INTO")
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &MergeStmt{Target: name}
	if st.TargetAlias, err = p.parseAlias(); err != nil {
		return nil, err
	}
	if err := p.expectKeywords("USING"); err != nil {
		return nil, err
	}
	if st.Source, err = p.parseTableRef(); err != nil {
		return nil, err
	}
	if err := p.expectKeywords("ON"); err != nil {
		return nil, err
	}
	if st.On, err = p.parseExpr(); err != nil {
		return nil, err
	}
	for p.acceptKeyword("WHEN") {
		if p.isKeyword("MATCHED") && st.Matched != nil {
			return nil, p.errf("%q: MERGE takes one WHEN MATCHED branch", "MATCHED")
		}
		if p.acceptKeyword("MATCHED") {
			m := &MergeMatched{}
			if p.acceptKeyword("AND") {
				if m.And, err = p.parseExpr(); err != nil {
					return nil, err
				}
			}
			if err := p.expectKeywords("THEN", "UPDATE", "SET"); err != nil {
				return nil, err
			}
			if m.Sets, err = p.parseSetList(); err != nil {
				return nil, err
			}
			st.Matched = m
			continue
		}
		if err := p.expectKeywords("NOT", "MATCHED", "THEN", "INSERT"); err != nil {
			return nil, err
		}
		if st.NotMatched != nil {
			return nil, p.errf("multiple WHEN NOT MATCHED branches")
		}
		st.NotMatched = &MergeInsert{}
		if st.NotMatched.Cols, err = p.parseIdentList(); err != nil {
			return nil, err
		}
		if err := p.expectKeywords("VALUES"); err != nil {
			return nil, err
		}
		if st.NotMatched.Vals, err = p.parseParenExprList(); err != nil {
			return nil, err
		}
	}
	if st.Matched == nil && st.NotMatched == nil {
		return nil, p.errf("MERGE requires at least one WHEN branch")
	}
	return st, nil
}

// --- expressions -----------------------------------------------------------------

// parseExpr parses a disjunction: OR binds loosest, then AND, then one
// comparison, then + and -, then *.
func (p *Parser) parseExpr() (Expr, error) {
	return p.parseLeftAssoc(p.parseAnd, "OR")
}

func (p *Parser) parseAnd() (Expr, error) {
	return p.parseLeftAssoc(p.parsePredicate, "AND")
}

// parseLeftAssoc parses operand { op operand } for the operators ops (keywords
// or symbols: no other token can spell one) into a left-deep tree of Binary
// nodes.
func (p *Parser) parseLeftAssoc(operand func() (Expr, error), ops ...string) (Expr, error) {
	l, err := operand()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if !slices.Contains(ops, t.Text) {
			return l, nil
		}
		p.next()
		r, err := operand()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: t.Text, L: l, R: r}
	}
}

var comparisonOps = []string{"=", "<>", "<", "<=", ">", ">="}

func (p *Parser) parsePredicate() (Expr, error) {
	not := p.acceptKeyword("NOT")
	if not || p.isKeyword("EXISTS") {
		// NOT negates EXISTS and nothing else.
		if err := p.expectKeywords("EXISTS"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Exists{Not: not, Select: sel}, p.expectSymbol(")")
	}
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); slices.Contains(comparisonOps, t.Text) {
		p.next()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: t.Text, L: l, R: r}, nil
	}
	return l, nil
}

func (p *Parser) parseAdd() (Expr, error) {
	return p.parseLeftAssoc(p.parseMul, "+", "-")
}

func (p *Parser) parseMul() (Expr, error) {
	return p.parseLeftAssoc(p.parsePrimary, "*")
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch {
	case t.Kind == TokNumber:
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errAt(t, "integer %q out of range", t.Text)
		}
		return &Literal{Val: record.Int(i)}, nil
	case t.Kind == TokParam:
		p.params++
		return &Param{Index: p.params - 1}, nil
	case t.Kind == TokSymbol && t.Text == "(":
		var e Expr
		var err error
		if p.isKeyword("SELECT") {
			var sel *SelectStmt
			sel, err = p.parseSelect()
			e = &Subquery{Select: sel}
		} else {
			e, err = p.parseExpr()
		}
		if err != nil {
			return nil, err
		}
		return e, p.expectSymbol(")")
	case t.Kind == TokIdent:
		if p.acceptSymbol("(") {
			return p.parseFuncCall(t)
		}
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			return &ColumnRef{Table: t.Text, Name: col}, err
		}
		return &ColumnRef{Name: t.Text}, nil
	}
	return nil, errAt(t, "unexpected %q in expression", t.Text)
}

// parseFuncCall parses, after "name(", the rest of one of the dialect's four
// functions: MIN(expr), MAX(expr), COUNT(*) and ROW_NUMBER() OVER
// ([PARTITION BY exprs] [ORDER BY exprs]).
func (p *Parser) parseFuncCall(name Token) (Expr, error) {
	fc := &FuncCall{Name: strings.ToUpper(name.Text)}
	var err error
	switch fc.Name {
	case "MIN", "MAX":
		if fc.Arg, err = p.parseExpr(); err != nil {
			return nil, err
		}
		return fc, p.expectSymbol(")")
	case "COUNT":
		if err := p.expectSymbol("*"); err != nil {
			return nil, err
		}
		return fc, p.expectSymbol(")")
	case "ROW_NUMBER":
	default:
		return nil, errAt(name, "unknown function %q", name.Text)
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeywords("OVER"); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	fc.Window = &WindowSpec{}
	if p.acceptKeyword("PARTITION") {
		if err := p.expectKeywords("BY"); err != nil {
			return nil, err
		}
		if fc.Window.PartitionBy, err = p.parseExprList(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeywords("BY"); err != nil {
			return nil, err
		}
		if fc.Window.OrderBy, err = p.parseExprList(); err != nil {
			return nil, err
		}
	}
	return fc, p.expectSymbol(")")
}
