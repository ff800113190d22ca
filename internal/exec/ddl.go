package exec

import (
	"fmt"

	"repro/internal/record"
	"repro/internal/sql"
	"repro/internal/table"
)

// ExecCreateTable creates a table; a PRIMARY KEY column becomes a unique
// clustered index on that column (the physical design the paper assumes for
// TVisited(nid) under its "CluIndex" strategy).
func (p *Planner) ExecCreateTable(st *sql.CreateTableStmt) error {
	cols := make([]record.Column, len(st.Cols))
	var pk []int
	for i, cd := range st.Cols {
		cols[i] = record.Column{Name: cd.Name, Type: cd.Type}
		if cd.PrimaryKey {
			pk = append(pk, i)
		}
	}
	schema, err := record.NewSchema(cols...)
	if err != nil {
		return err
	}
	opts := table.Options{}
	if len(pk) > 0 {
		opts.ClusterOn = pk
		opts.ClusterUnique = true
	}
	_, err = p.cat.Create(st.Name, schema, opts)
	return err
}

// ExecCreateIndex creates a secondary index, or re-organizes an empty heap
// table into a clustered B+tree for CREATE CLUSTERED INDEX.
func (p *Planner) ExecCreateIndex(st *sql.CreateIndexStmt) error {
	t, ok := p.cat.Get(st.Table)
	if !ok {
		return fmt.Errorf("exec: unknown table %q", st.Table)
	}
	ords := make([]int, len(st.Cols))
	for i, cn := range st.Cols {
		ord := t.Schema.Ordinal(cn)
		if ord < 0 {
			return fmt.Errorf("exec: table %s has no column %q", st.Table, cn)
		}
		ords[i] = ord
	}
	if st.Clustered {
		return p.clusterize(t, ords, st.Unique)
	}
	_, err := t.CreateIndex(st.Name, ords, st.Unique)
	return err
}

// clusterize converts an empty table to clustered storage on the given
// columns (the load-then-index order puts CREATE CLUSTERED INDEX before the
// first INSERT).
func (p *Planner) clusterize(t *table.Table, cols []int, unique bool) error {
	if t.Clustered() != nil {
		return fmt.Errorf("exec: table %s already has a clustered index", t.Name)
	}
	if t.RowCount() > 0 {
		return fmt.Errorf("exec: CREATE CLUSTERED INDEX needs an empty table, %s holds %d rows", t.Name, t.RowCount())
	}
	if err := p.cat.Drop(t.Name); err != nil {
		return err
	}
	nt, err := p.cat.Create(t.Name, t.Schema, table.Options{ClusterOn: cols, ClusterUnique: unique})
	if err != nil {
		return err
	}
	for _, ix := range t.Secondary {
		if _, err := nt.CreateIndex(ix.Name, ix.Cols, ix.Unique); err != nil {
			return err
		}
	}
	return nil
}

// ExecDropTable removes a table.
func (p *Planner) ExecDropTable(st *sql.DropTableStmt) error {
	return p.cat.Drop(st.Name)
}
