package record

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Tuple encoding
//
// A tuple is serialized as:
//
//	nullBitmap  ceil(n/8) bytes, bit i set => column i is NULL
//	per column  INT:   8 bytes little-endian two's complement
//	            FLOAT: 8 bytes little-endian IEEE-754
//	            TEXT:  uvarint length + raw bytes
//
// NULL columns are skipped in the body. The encoding is self-delimiting
// given the schema, which is how heap pages and B+tree leaves store rows.

// EncodeTuple appends the serialized row to dst and returns the result.
func EncodeTuple(dst []byte, s *Schema, r Row) ([]byte, error) {
	if len(r) != s.Len() {
		return nil, fmt.Errorf("record: encode row arity %d vs schema %d", len(r), s.Len())
	}
	nb := (s.Len() + 7) / 8
	bitmapAt := len(dst)
	for i := 0; i < nb; i++ {
		dst = append(dst, 0)
	}
	var tmp [8]byte
	for i, v := range r {
		if v.Null {
			dst[bitmapAt+i/8] |= 1 << (i % 8)
			continue
		}
		switch s.Columns[i].Type {
		case TInt:
			if v.Typ != TInt {
				return nil, fmt.Errorf("record: column %s expects INT, got %s", s.Columns[i].Name, v.Typ)
			}
			binary.LittleEndian.PutUint64(tmp[:], uint64(v.I))
			dst = append(dst, tmp[:]...)
		case TFloat:
			f := v.F
			if v.Typ == TInt {
				f = float64(v.I)
			} else if v.Typ != TFloat {
				return nil, fmt.Errorf("record: column %s expects FLOAT, got %s", s.Columns[i].Name, v.Typ)
			}
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(f))
			dst = append(dst, tmp[:]...)
		case TText:
			if v.Typ != TText {
				return nil, fmt.Errorf("record: column %s expects TEXT, got %s", s.Columns[i].Name, v.Typ)
			}
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		default:
			return nil, fmt.Errorf("record: unknown type %v", s.Columns[i].Type)
		}
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
	cols := s.Columns
	nb := (len(cols) + 7) / 8
	if len(src) < nb {
		return 0, fmt.Errorf("record: truncated tuple (bitmap)")
	}
	bitmap := src[:nb]
	if s.allInt && allZero(bitmap) {
		// Every column is eight bytes at a constant offset.
		end := nb + 8*len(cols)
		if len(src) < end {
			return 0, fmt.Errorf("record: truncated INT column %d", (len(src)-nb)/8)
		}
		for i := range cols {
			if need == nil || need[i] {
				dst[i] = Value{Typ: TInt, I: int64(binary.LittleEndian.Uint64(src[nb+8*i:]))}
			}
		}
		return end, nil
	}
	off := nb
	for i, c := range cols {
		want := need == nil || need[i]
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			if want {
				dst[i] = NullOf(c.Type)
			}
			continue
		}
		switch c.Type {
		case TInt, TFloat:
			if len(src) < off+8 {
				return 0, fmt.Errorf("record: truncated %s column %d", c.Type, i)
			}
			if want {
				u := binary.LittleEndian.Uint64(src[off:])
				if c.Type == TInt {
					dst[i] = Int(int64(u))
				} else {
					dst[i] = Float(math.Float64frombits(u))
				}
			}
			off += 8
		case TText:
			n, w := binary.Uvarint(src[off:])
			if w <= 0 || uint64(len(src)-off-w) < n {
				return 0, fmt.Errorf("record: truncated TEXT column %d", i)
			}
			if want {
				dst[i] = Text(string(src[off+w : off+w+int(n)]))
			}
			off += w + int(n)
		default:
			return 0, fmt.Errorf("record: unknown type %v", c.Type)
		}
	}
	return off, nil
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// Key encoding
//
// B+tree keys are byte slices compared with bytes.Compare, so every value is
// encoded order-preservingly:
//
//	NULL:  tag 0x00
//	INT:   tag 0x01 + big-endian uint64 with the sign bit flipped
//	FLOAT: tag 0x02 + orderable IEEE-754 bits (see floatBits)
//	TEXT:  tag 0x03 + escaped bytes (0x00 -> 0x00 0xFF) + terminator 0x00 0x00
//
// Components of a composite key simply concatenate; because every component
// is self-delimiting and prefix-free per type tag, the concatenation orders
// lexicographically by component.

// EncodeKey appends the order-preserving encoding of vals to dst.
func EncodeKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		if v.Null {
			dst = append(dst, 0x00)
			continue
		}
		switch v.Typ {
		case TInt:
			var tmp [8]byte
			binary.BigEndian.PutUint64(tmp[:], uint64(v.I)^(1<<63))
			dst = append(dst, 0x01)
			dst = append(dst, tmp[:]...)
		case TFloat:
			var tmp [8]byte
			binary.BigEndian.PutUint64(tmp[:], floatBits(v.F))
			dst = append(dst, 0x02)
			dst = append(dst, tmp[:]...)
		case TText:
			dst = append(dst, 0x03)
			for i := 0; i < len(v.S); i++ {
				b := v.S[i]
				dst = append(dst, b)
				if b == 0x00 {
					dst = append(dst, 0xFF)
				}
			}
			dst = append(dst, 0x00, 0x00)
		}
	}
	return dst
}

// DecodeKey parses count components off the front of src, returning the
// values and bytes consumed. Used by clustered tables to recover key columns.
func DecodeKey(src []byte, count int) ([]Value, int, error) {
	out := make([]Value, 0, count)
	off := 0
	for k := 0; k < count; k++ {
		if off >= len(src) {
			return nil, 0, fmt.Errorf("record: truncated key component %d", k)
		}
		tag := src[off]
		off++
		switch tag {
		case 0x00:
			out = append(out, Value{Null: true})
		case 0x01:
			if len(src) < off+8 {
				return nil, 0, fmt.Errorf("record: truncated INT key")
			}
			u := binary.BigEndian.Uint64(src[off:]) ^ (1 << 63)
			out = append(out, Int(int64(u)))
			off += 8
		case 0x02:
			if len(src) < off+8 {
				return nil, 0, fmt.Errorf("record: truncated FLOAT key")
			}
			u := binary.BigEndian.Uint64(src[off:])
			if u&(1<<63) != 0 {
				u = u &^ (1 << 63)
			} else {
				u = ^u
			}
			out = append(out, Float(math.Float64frombits(u)))
			off += 8
		case 0x03:
			var sb []byte
			for {
				if off >= len(src) {
					return nil, 0, fmt.Errorf("record: unterminated TEXT key")
				}
				b := src[off]
				off++
				if b == 0x00 {
					if off >= len(src) {
						return nil, 0, fmt.Errorf("record: unterminated TEXT key escape")
					}
					nxt := src[off]
					off++
					if nxt == 0x00 {
						// terminator
						goto done
					}
					if nxt == 0xFF {
						sb = append(sb, 0x00)
						continue
					}
					return nil, 0, fmt.Errorf("record: bad TEXT key escape %x", nxt)
				}
				sb = append(sb, b)
			}
		done:
			out = append(out, Text(string(sb)))
		default:
			return nil, 0, fmt.Errorf("record: bad key tag %x", tag)
		}
	}
	return out, off, nil
}
