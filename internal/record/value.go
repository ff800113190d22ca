// Package record defines the engine's value model: the SQL value (a 64-bit
// integer or NULL), table schemas, the on-page tuple encoding, and an
// order-preserving key encoding used by the B+tree so composite keys compare
// correctly as raw bytes.
package record

import "strconv"

// Type enumerates the column types the engine supports. The paper's schema
// (fid, tid, cost; nid, d2s, p2s, f) is all integers, so INT is the only one.
type Type uint8

// TInt is the INT column type.
const TInt Type = 1

// Value is one SQL value: an INT, or NULL when Null is set (I is then 0).
// The zero Value is the integer 0.
type Value struct {
	I    int64
	Null bool
}

// Int returns an INT value.
func Int(v int64) Value { return Value{I: v} }

// Bool converts a Go bool to the engine's boolean representation (INT 0/1).
func Bool(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

// String renders the value for display and debugging.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	return strconv.FormatInt(v.I, 10)
}

// Compare orders two values: -1, 0, +1. NULL sorts before any non-NULL;
// comparing NULLs yields 0.
func Compare(a, b Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	case a.I < b.I:
		return -1
	case a.I > b.I:
		return 1
	}
	return 0
}

// Truthy interprets a value as a SQL boolean: non-zero is true; NULL is
// false.
func (v Value) Truthy() bool { return !v.Null && v.I != 0 }

// Row is one tuple flowing through the executor.
type Row []Value

// Clone copies a row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
