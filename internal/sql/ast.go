package sql

import (
	"repro/internal/record"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed expression.
type Expr interface{ expr() }

// --- statements -------------------------------------------------------------

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       record.Type
	PrimaryKey bool
}

// CreateTableStmt creates a table. A PRIMARY KEY column becomes a unique
// clustered index on that column. A TEMPORARY table lives as long as any
// other, until a DROP, but keeps its pages in the temp space, apart from
// the database file.
type CreateTableStmt struct {
	Name      string
	Temporary bool
	Cols      []ColumnDef
}

// CreateIndexStmt creates an index. CLUSTERED is only valid on an empty
// table and re-organizes its storage.
type CreateIndexStmt struct {
	Name      string
	Table     string
	Cols      []string
	Unique    bool
	Clustered bool
}

// DropTableStmt drops a table.
type DropTableStmt struct{ Name string }

// InsertStmt inserts literal rows or the result of a query.
type InsertStmt struct {
	Table  string
	Cols   []string
	Rows   [][]Expr    // VALUES form
	Select *SelectStmt // INSERT ... SELECT form
}

// SetClause is one col = expr assignment.
type SetClause struct {
	Col string
	Val Expr
}

// UpdateStmt updates rows, optionally joining a source (PostgreSQL-style
// UPDATE ... FROM, which the paper's TSQL fallback needs for the merge
// emulation).
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	From  *TableRef // optional
	Where Expr
}

// DeleteStmt deletes rows.
type DeleteStmt struct {
	Table string
	Where Expr
}

// TableRef is a named table or a derived table, with optional alias and
// derived-column list (e.g. `(SELECT ...) tmp (nid, p2s, cost)`).
type TableRef struct {
	Table   string
	Alias   string
	Sub     *SelectStmt
	SubCols []string
}

// Name returns the reference's binding name (alias or table name).
func (t *TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// SelectStmt is a query block.
type SelectStmt struct {
	Top      Expr // TOP n (SQL Server spelling used in the paper's listings)
	Distinct bool
	Items    []Expr
	From     []*TableRef // comma-join list; only the first may be derived
	Where    Expr
	GroupBy  []Expr
}

// MergeMatched is the WHEN MATCHED [AND cond] THEN UPDATE branch.
type MergeMatched struct {
	And  Expr
	Sets []SetClause
}

// MergeInsert is the WHEN NOT MATCHED THEN INSERT branch.
type MergeInsert struct {
	Cols []string
	Vals []Expr
}

// MergeStmt is the SQL:2008 MERGE the paper leans on for the M-operator.
type MergeStmt struct {
	Target      string
	TargetAlias string
	Source      *TableRef
	On          Expr
	Matched     *MergeMatched
	NotMatched  *MergeInsert
}

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*SelectStmt) stmt()      {}
func (*MergeStmt) stmt()       {}

// --- expressions ------------------------------------------------------------

// ColumnRef references a column, optionally qualified.
type ColumnRef struct {
	Table string // "" if unqualified
	Name  string
}

// Literal is an integer constant.
type Literal struct{ Val record.Value }

// Param is a ? placeholder; Index is its zero-based position.
type Param struct{ Index int }

// Binary is a binary operation: arithmetic (+ - *), comparison
// (= <> < <= > >=), or logical (AND OR).
type Binary struct {
	Op   string
	L, R Expr
}

// WindowSpec is the OVER(...) clause; both lists order ascending.
type WindowSpec struct {
	PartitionBy []Expr
	OrderBy     []Expr
}

// FuncCall is an aggregate — MIN(Arg), MAX(Arg) or COUNT(*), whose Arg is
// nil — or the ROW_NUMBER() window function, whose Window is non-nil. The
// parser admits no other function, so consumers tell the two kinds apart by
// Window alone.
type FuncCall struct {
	Name   string // upper-cased
	Arg    Expr
	Window *WindowSpec
}

// Subquery is a scalar subquery (must yield <= 1 row, 1 column).
type Subquery struct{ Select *SelectStmt }

// Exists is [NOT] EXISTS (subquery).
type Exists struct {
	Not    bool
	Select *SelectStmt
}

func (*ColumnRef) expr() {}
func (*Literal) expr()   {}
func (*Param) expr()     {}
func (*Binary) expr()    {}
func (*FuncCall) expr()  {}
func (*Subquery) expr()  {}
func (*Exists) expr()    {}
