package record

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Tuple encoding
//
// A stored tuple of an n-column schema is exactly 8·n bytes: column i is the
// 8 bytes at 8·i, little-endian two's complement. A stored tuple holds no
// NULL — NULL is a result (an aggregate over no rows, a scalar subquery with
// no row), never a column value — so every tuple of a table has the same
// length, which lets an update overwrite its tuple in place.

// EncodeTuple appends the serialized row to dst and returns the result. A
// NULL value is an error: it has no stored form.
func EncodeTuple(dst []byte, s *Schema, r Row) ([]byte, error) {
	if len(r) != s.Len() {
		return nil, fmt.Errorf("record: encode row arity %d vs schema %d", len(r), s.Len())
	}
	for i, v := range r {
		if v.Null {
			return nil, fmt.Errorf("record: column %s is NULL; a stored tuple holds no NULL", s.Columns[i].Name)
		}
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	}
	return dst, nil
}

// DecodeTuple parses a row serialized by EncodeTuple into a freshly
// allocated Row. It returns the row and the number of bytes consumed.
func DecodeTuple(src []byte, s *Schema) (Row, int, error) {
	r := make(Row, s.Len())
	n, err := DecodeInto(r, src, s, nil)
	if err != nil {
		return nil, 0, err
	}
	return r, n, nil
}

// DecodeInto parses a row serialized by EncodeTuple into dst, which must
// hold s.Len() values, and returns the number of bytes consumed. Only the
// ordinals i with need[i] set are written (a nil need means all of them);
// the others keep whatever dst held, so a scan that reuses one dst pays for
// the columns its plan reads and nothing else. A src of any length other
// than 8·s.Len() is malformed.
func DecodeInto(dst Row, src []byte, s *Schema, need []bool) (int, error) {
	n := s.Len()
	if len(src) != 8*n {
		return 0, ErrMalformed
	}
	for i := 0; i < n; i++ {
		if need == nil || need[i] {
			dst[i] = Value{I: int64(binary.LittleEndian.Uint64(src[8*i:]))}
		}
	}
	return len(src), nil
}

// ErrMalformed reports a tuple whose length is not 8 bytes a column.
var ErrMalformed = errors.New("record: malformed tuple: its length is not 8 bytes a column")

// Pred is a comparison a scan runs on the encoded tuple: column Col against
// Val, holding when the three-way result is in Sat (bit 0 for column < Val,
// bit 1 for equal, bit 2 for greater).
type Pred struct {
	Col int
	Sat uint8
	Val int64
}

// Holds reports whether column value v satisfies p: the one definition of
// a pred, small enough to inline into every loop that decides one, so a
// rejected row costs no call.
func (p Pred) Holds(v int64) bool {
	bit := uint8(2)
	if v < p.Val {
		bit = 1
	} else if v > p.Val {
		bit = 4
	}
	return p.Sat&bit != 0
}

// Match reports whether the tuple src of an n-column schema satisfies every
// pred (Holds), decoding nothing: column c is the 8 bytes at 8·c. A tuple
// of any length other than 8·n is ErrMalformed whatever the preds make of
// it. It inlines into the heap slot loop and the secondary-index scan; the
// B+tree slot loop reads the cell's length itself and calls Holds.
func Match(src []byte, n int, preds []Pred) (bool, error) {
	if len(src) != 8*n {
		return false, ErrMalformed
	}
	for _, p := range preds {
		if !p.Holds(int64(binary.LittleEndian.Uint64(src[8*p.Col:]))) {
			return false, nil
		}
	}
	return true, nil
}

// Key encoding
//
// The in-memory keys of GROUP BY, DISTINCT and hash-join build sides group
// values that may be NULL (a result, never a stored value), so each value
// is encoded order-preservingly and self-delimiting:
//
//	NULL:  tag 0x00
//	INT:   tag 0x01 + big-endian uint64 with the sign bit flipped
//
// Components of a composite key simply concatenate, and the concatenation
// orders lexicographically by component under bytes.Compare. B+tree keys
// are not encoded this way: a tree compares the key columns of a stored
// tuple, 8 little-endian bytes each, as int64s where they lie (package
// btree), and no stored key holds NULL.

// EncodeKey appends the order-preserving encoding of vals to dst.
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		if v.Null {
			dst = append(dst, 0x00)
			continue
		}
		dst = append(dst, 0x01)
		dst = binary.BigEndian.AppendUint64(dst, uint64(v.I)^(1<<63))
	}
	return dst
}
