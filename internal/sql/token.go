// Package sql implements the lexer, AST and recursive-descent parser for
// the SQL dialect the engine executes, which is the SQL the FEM clients
// issue and no more: SELECT with comma joins, a leading derived table, GROUP
// BY / HAVING, TOP, DISTINCT, scalar and [NOT] EXISTS subqueries, MIN / MAX /
// COUNT, the ROW_NUMBER window function (SQL:2003) and the MERGE statement
// (SQL:2008), plus INSERT / UPDATE [FROM] / DELETE and the CREATE / DROP DDL
// around them, over integer literals and ? parameters. The grammar is in
// docs/ARCHITECTURE.md §SQL dialect; sql_test.go lists what is outside it.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexer output.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber // an unsigned integer
	TokParam  // ?
	TokSymbol // operators and punctuation
)

// Token is one lexical unit. Text preserves the original spelling except
// for keywords, which are upper-cased.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // byte offset in the input
}

// NULL names nothing in the grammar: it stays reserved so that the literal
// the dialect does not have is a parse error, not a column called NULL.
var keywords = map[string]bool{
	"SELECT": true, "TOP": true, "DISTINCT": true, "FROM": true,
	"WHERE": true, "GROUP": true, "BY": true, "HAVING": true, "ORDER": true,
	"AND": true, "OR": true, "NOT": true, "EXISTS": true, "NULL": true,
	"AS": true, "INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"UNIQUE": true, "CLUSTERED": true, "INDEX": true, "TABLE": true,
	"DROP": true, "ON": true, "MERGE": true, "USING": true,
	"WHEN": true, "MATCHED": true, "THEN": true, "OVER": true,
	"PARTITION": true, "INT": true, "PRIMARY": true, "KEY": true,
}

// Lexer tokenizes a SQL string.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	l.skipSpace()
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentCont(l.src[l.pos]) {
			l.pos++
		}
		word := l.src[start:l.pos]
		up := strings.ToUpper(word)
		if keywords[up] {
			return Token{Kind: TokKeyword, Text: up, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: word, Pos: start}, nil
	case c >= '0' && c <= '9':
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '?':
		l.pos++
		return Token{Kind: TokParam, Text: "?", Pos: start}, nil
	default:
		// Multi-char operators first.
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "<=", ">=", "<>":
			l.pos += 2
			return Token{Kind: TokSymbol, Text: two, Pos: start}, nil
		}
		switch c {
		case '=', '<', '>', '+', '-', '*', '(', ')', ',', '.', ';':
			l.pos++
			return Token{Kind: TokSymbol, Text: string(c), Pos: start}, nil
		}
		return Token{}, fmt.Errorf("sql: unexpected character %q at %d", c, start)
	}
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

// Tokenize lexes the whole input.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}
