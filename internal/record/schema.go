package record

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
	byName  map[string]int
	allInt  bool // every column is INT: tuples without NULLs have constant offsets
}

// NewSchema builds a schema; column names are case-insensitive and must be
// unique.
func NewSchema(cols ...Column) (*Schema, error) {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols)), allInt: true}
	for i, c := range cols {
		s.allInt = s.allInt && c.Type == TInt
		key := strings.ToLower(c.Name)
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("record: duplicate column %q", c.Name)
		}
		s.byName[key] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error (for literals in tests).
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Ordinal returns the index of the named column, or -1.
func (s *Schema) Ordinal(name string) int {
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Validate checks a row's arity and types against the schema. NULLs pass
// regardless of declared type.
func (s *Schema) Validate(r Row) error {
	if len(r) != len(s.Columns) {
		return fmt.Errorf("record: row has %d values, schema %d", len(r), len(s.Columns))
	}
	for i, v := range r {
		if v.Null {
			continue
		}
		if v.Typ != s.Columns[i].Type {
			// Allow INT literals into FLOAT columns (implicit widening).
			if s.Columns[i].Type == TFloat && v.Typ == TInt {
				continue
			}
			return fmt.Errorf("record: column %s expects %s, got %s",
				s.Columns[i].Name, s.Columns[i].Type, v.Typ)
		}
	}
	return nil
}

// Coerce widens INT values destined for FLOAT columns in place.
func (s *Schema) Coerce(r Row) {
	for i := range r {
		if i < len(s.Columns) && s.Columns[i].Type == TFloat && r[i].Typ == TInt && !r[i].Null {
			r[i] = Float(float64(r[i].I))
		}
	}
}

func (s *Schema) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		parts[i] = c.Name + " " + c.Type.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
