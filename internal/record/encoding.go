package record

import (
	"encoding/binary"
	"fmt"
)

// Tuple encoding
//
// A tuple is serialized as:
//
//	nullBitmap  ceil(n/8) bytes, bit i set => column i is NULL
//	per column  8 bytes little-endian two's complement
//
// NULL columns are skipped in the body. The encoding is self-delimiting
// given the schema, which is how heap pages and B+tree leaves store rows.

// EncodeTuple appends the serialized row to dst and returns the result.
func EncodeTuple(dst []byte, s *Schema, r Row) ([]byte, error) {
	if len(r) != s.Len() {
		return nil, fmt.Errorf("record: encode row arity %d vs schema %d", len(r), s.Len())
	}
	bitmapAt := len(dst)
	dst = append(dst, make([]byte, (s.Len()+7)/8)...)
	for i, v := range r {
		if v.Null {
			dst[bitmapAt+i/8] |= 1 << (i % 8)
			continue
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
// the columns its plan reads and nothing else.
func DecodeInto(dst Row, src []byte, s *Schema, need []bool) (int, error) {
	n := s.Len()
	nb := (n + 7) / 8
	if len(src) < nb {
		return 0, fmt.Errorf("record: truncated tuple (bitmap)")
	}
	off := nb
	for i := 0; i < n; i++ {
		want := need == nil || need[i]
		if src[i/8]&(1<<(i%8)) != 0 {
			if want {
				dst[i] = Value{Null: true}
			}
			continue
		}
		if len(src) < off+8 {
			return 0, fmt.Errorf("record: truncated INT column %d", i)
		}
		if want {
			dst[i] = Value{I: int64(binary.LittleEndian.Uint64(src[off:]))}
		}
		off += 8
	}
	return off, nil
}

// Key encoding
//
// B+tree keys are byte slices compared with bytes.Compare, so every value is
// encoded order-preservingly:
//
//	NULL:  tag 0x00
//	INT:   tag 0x01 + big-endian uint64 with the sign bit flipped
//
// Components of a composite key simply concatenate; because every component
// is self-delimiting, the concatenation orders lexicographically by
// component.

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
