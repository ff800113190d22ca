package record

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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

// Pred is a comparison a scan runs on the encoded tuple: column Col against
// Val, holding when the three-way result is in Sat (bit 0 for column < Val,
// bit 1 for equal, bit 2 for greater).
type Pred struct {
	Col int
	Sat uint8
	Val int64
}

// Match reports whether the tuple src of an n-column schema satisfies every
// pred, decoding nothing: a column lives in the 8 bytes at bitmap + 8·ordinal,
// 8 less for each NULL before it (the bitmap is walked only when the tuple has
// one), and a NULL column satisfies no pred. A tuple shorter than its bitmap
// says is an error whatever the preds make of it.
func Match(src []byte, n int, preds []Pred) (bool, error) {
	nb, nulls := (n+7)/8, 0
	if len(src) >= nb {
		nulls = -bits.OnesCount8(src[nb-1] >> ((n-1)%8 + 1)) // padding bits are no columns
		for _, b := range src[:nb] {
			nulls += bits.OnesCount8(b)
		}
	}
	if len(src) < nb+8*(n-nulls) {
		return false, fmt.Errorf("record: truncated tuple (%d bytes, %d columns)", len(src), n)
	}
	for _, p := range preds {
		off := nb + 8*p.Col
		for i := 0; nulls > 0 && i <= p.Col; i++ {
			if src[i/8]&(1<<(i%8)) == 0 {
				continue
			}
			if i == p.Col {
				return false, nil
			}
			off -= 8
		}
		cmp := 1
		if v := int64(binary.LittleEndian.Uint64(src[off:])); v < p.Val {
			cmp = 0
		} else if v > p.Val {
			cmp = 2
		}
		if p.Sat>>cmp&1 == 0 {
			return false, nil
		}
	}
	return true, nil
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
