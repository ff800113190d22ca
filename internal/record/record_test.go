package record

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

var null = Value{Null: true}

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Int(-7), "-7"},
		{null, "NULL"},
		{Bool(true), "1"},
		{Bool(false), "0"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
	// An int64 plus the NULL flag, pointer-free: what every scalarFn call
	// returns and every row buffer holds.
	if sz := unsafe.Sizeof(Value{}); sz > 16 {
		t.Errorf("Value is %d bytes, want <= 16", sz)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(-1 << 63), Int(1<<63 - 1), -1},
		{null, Int(-1 << 63), -1}, // NULL sorts first
		{Int(0), null, 1},
		{null, null, 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTruthy(t *testing.T) {
	if !Int(1).Truthy() || Int(0).Truthy() {
		t.Error("int truthiness")
	}
	if null.Truthy() {
		t.Error("NULL is not truthy")
	}
}

func TestSchema(t *testing.T) {
	s := MustSchema(
		Column{Name: "nid", Type: TInt},
		Column{Name: "d2s", Type: TInt},
		Column{Name: "p2s", Type: TInt},
	)
	if s.Ordinal("D2S") != 1 {
		t.Error("case-insensitive ordinal")
	}
	if s.Ordinal("missing") != -1 {
		t.Error("missing ordinal")
	}
	if _, err := NewSchema(Column{Name: "a", Type: TInt}, Column{Name: "A", Type: TInt}); err == nil {
		t.Error("duplicate column names must fail")
	}
	if _, err := NewSchema(Column{Name: "a", Type: TInt + 1}); err == nil {
		t.Error("a column type other than INT must fail")
	}
}

func TestTupleRoundtrip(t *testing.T) {
	s := MustSchema(
		Column{Name: "a", Type: TInt},
		Column{Name: "b", Type: TInt},
		Column{Name: "c", Type: TInt},
		Column{Name: "d", Type: TInt},
	)
	rows := []Row{
		{Int(1), Int(25), Int(-1 << 63), Int(-9)},
		{Int(0), Int(0), Int(0), Int(1 << 60)},
		{null, null, null, Int(5)},
		{Int(-1), Int(1<<63 - 1), Int(7), null},
	}
	for _, r := range rows {
		buf, err := EncodeTuple(nil, s, r)
		if err != nil {
			t.Fatalf("encode %v: %v", r, err)
		}
		got, n, err := DecodeTuple(buf, s)
		if err != nil || n != len(buf) {
			t.Fatalf("decode %v: n=%d err=%v", r, n, err)
		}
		for i := range r {
			if r[i] != got[i] {
				t.Fatalf("roundtrip mismatch at %d: %v vs %v", i, r[i], got[i])
			}
		}
	}
}

func TestTupleErrors(t *testing.T) {
	s := MustSchema(Column{Name: "a", Type: TInt})
	if _, err := EncodeTuple(nil, s, Row{Int(1), Int(2)}); err == nil {
		t.Error("arity mismatch must fail")
	}
	if _, _, err := DecodeTuple([]byte{}, s); err == nil {
		t.Error("truncated bitmap must fail")
	}
	if _, _, err := DecodeTuple([]byte{0x00, 1, 2}, s); err == nil {
		t.Error("truncated int must fail")
	}
	// A set bit past the last column is padding, not a NULL.
	if r, n, err := DecodeTuple([]byte{0x02, 7, 0, 0, 0, 0, 0, 0, 0}, s); err != nil || n != 9 || r[0] != Int(7) {
		t.Errorf("padding bit: %v %d %v", r, n, err)
	}
}

func TestQuickTupleRoundtrip(t *testing.T) {
	s := MustSchema(
		Column{Name: "a", Type: TInt},
		Column{Name: "b", Type: TInt},
	)
	fn := func(a, b int64, aNull, bNull bool) bool {
		r := Row{Int(a), Int(b)}
		if aNull {
			r[0] = null
		}
		if bNull {
			r[1] = null
		}
		buf, err := EncodeTuple(nil, s, r)
		if err != nil {
			return false
		}
		got, n, err := DecodeTuple(buf, s)
		if err != nil || n != len(buf) || got[0] != r[0] || got[1] != r[1] {
			return false
		}
		// A projected decode writes the needed ordinal and nothing else.
		part := Row{Int(-1), Int(-1)}
		_, err = DecodeInto(part, buf, s, []bool{false, true})
		return err == nil && part[0] == Int(-1) && part[1] == r[1]
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMatchAgreesWithDecode: Match on the encoded tuple answers what the
// comparison answers on the decoded row — for every satisfied-set, with
// NULLs before, at and after the compared column (each one before it moves
// the column 8 bytes down), past the first bitmap byte, and with padding bits
// set — and every truncation of the tuple is an error, whatever the preds.
func TestMatchAgreesWithDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 2000; round++ {
		n := 1 + rng.Intn(20)
		cols := make([]Column, n)
		row := make(Row, n)
		for i := range cols {
			cols[i] = Column{Name: fmt.Sprintf("c%d", i), Type: TInt}
			row[i] = Int(int64(rng.Intn(5) - 2))
			if rng.Intn(4) == 0 {
				row[i] = null
			}
		}
		buf, err := EncodeTuple(nil, MustSchema(cols...), row)
		if err != nil {
			t.Fatal(err)
		}
		if n%8 != 0 && rng.Intn(2) == 0 {
			buf[(n-1)/8] |= 0x80 // a padding bit: no column, no NULL
		}
		preds := make([]Pred, 1+rng.Intn(3))
		want := true
		for i := range preds {
			p := Pred{Col: rng.Intn(n), Sat: uint8(rng.Intn(8)), Val: int64(rng.Intn(5) - 2)}
			preds[i] = p
			v := row[p.Col]
			want = want && !v.Null && p.Sat>>uint(Compare(v, Int(p.Val))+1)&1 != 0
		}
		if got, err := Match(buf, n, preds); err != nil || got != want {
			t.Fatalf("row %v preds %+v: Match = %v, %v; want %v", row, preds, got, err, want)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, err := Match(buf[:cut], n, preds); err == nil {
				t.Fatalf("row %v cut to %d of %d bytes: no error", row, cut, len(buf))
			}
		}
	}
}

// TestKeyEncodingOrder is the load-bearing property: bytes.Compare over
// EncodeKey must agree with semantic value ordering, or every B+tree scan
// in the engine breaks.
func TestKeyEncodingOrder(t *testing.T) {
	fn := func(a, b int64) bool {
		ka := EncodeKey(nil, Int(a))
		kb := EncodeKey(nil, Int(b))
		return sign(bytes.Compare(ka, kb)) == sign(Compare(Int(a), Int(b)))
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
	// NULL keys sort before every integer, as Compare orders them.
	if bytes.Compare(EncodeKey(nil, null), EncodeKey(nil, Int(-1<<63))) >= 0 {
		t.Fatal("NULL key must sort first")
	}
}

// TestCompositeKeyOrder: concatenated components order lexicographically
// by component.
func TestCompositeKeyOrder(t *testing.T) {
	fn := func(a1, a2, b1, b2 int64) bool {
		ka := EncodeKey(nil, Int(a1), Int(a2))
		kb := EncodeKey(nil, Int(b1), Int(b2))
		want := 0
		if a1 != b1 {
			want = sign(Compare(Int(a1), Int(b1)))
		} else {
			want = sign(Compare(Int(a2), Int(b2)))
		}
		return sign(bytes.Compare(ka, kb)) == want
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), null}
	c := r.Clone()
	c[0] = Int(9)
	if r[0].I != 1 {
		t.Fatal("clone aliases the original")
	}
	if c[1] != null {
		t.Fatalf("clone lost the NULL: %v", c)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}
