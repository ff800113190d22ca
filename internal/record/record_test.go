package record

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Int(-7), "-7"},
		{Float(2.5), "2.5"},
		{Text("hi"), "hi"},
		{NullOf(TInt), "NULL"},
		{Bool(true), "1"},
		{Bool(false), "0"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
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
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Float(2.0), Int(2), 0},
		{Text("a"), Text("b"), -1},
		{Text("b"), Text("b"), 0},
		{NullOf(TInt), Int(0), -1}, // NULL sorts first
		{Int(0), NullOf(TInt), 1},
		{NullOf(TInt), NullOf(TText), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(NullOf(TInt), NullOf(TInt)) {
		t.Error("NULL = NULL must be false under predicate semantics")
	}
	if !Equal(Int(3), Int(3)) {
		t.Error("3 = 3")
	}
	if Equal(Int(3), Int(4)) {
		t.Error("3 != 4")
	}
}

func TestTruthy(t *testing.T) {
	if !Int(1).Truthy() || Int(0).Truthy() {
		t.Error("int truthiness")
	}
	if NullOf(TInt).Truthy() {
		t.Error("NULL is not truthy")
	}
	if !Text("x").Truthy() || Text("").Truthy() {
		t.Error("text truthiness")
	}
	if !Float(0.1).Truthy() || Float(0).Truthy() {
		t.Error("float truthiness")
	}
}

func TestSchema(t *testing.T) {
	s := MustSchema(
		Column{Name: "nid", Type: TInt},
		Column{Name: "d2s", Type: TInt},
		Column{Name: "note", Type: TText},
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
	if err := s.Validate(Row{Int(1), Int(2), Text("x")}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := s.Validate(Row{Int(1), Int(2)}); err == nil {
		t.Error("wrong arity must fail")
	}
	if err := s.Validate(Row{Int(1), Text("no"), Text("x")}); err == nil {
		t.Error("wrong type must fail")
	}
	if err := s.Validate(Row{Int(1), NullOf(TInt), Text("x")}); err != nil {
		t.Errorf("NULL should pass: %v", err)
	}
}

func TestSchemaCoerce(t *testing.T) {
	s := MustSchema(Column{Name: "f", Type: TFloat})
	r := Row{Int(3)}
	if err := s.Validate(r); err != nil {
		t.Fatalf("INT into FLOAT should validate: %v", err)
	}
	s.Coerce(r)
	if r[0].Typ != TFloat || r[0].F != 3.0 {
		t.Fatalf("coerce failed: %v", r[0])
	}
}

func TestTupleRoundtrip(t *testing.T) {
	s := MustSchema(
		Column{Name: "a", Type: TInt},
		Column{Name: "b", Type: TFloat},
		Column{Name: "c", Type: TText},
		Column{Name: "d", Type: TInt},
	)
	rows := []Row{
		{Int(1), Float(2.5), Text("hello"), Int(-9)},
		{Int(0), Float(0), Text(""), Int(1 << 60)},
		{NullOf(TInt), NullOf(TFloat), NullOf(TText), Int(5)},
		{Int(-1), Float(math.Inf(1)), Text("utf8 ✓ ok"), NullOf(TInt)},
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
			if r[i].Null != got[i].Null || Compare(r[i], got[i]) != 0 {
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
	if _, err := EncodeTuple(nil, s, Row{Text("x")}); err == nil {
		t.Error("type mismatch must fail")
	}
	if _, _, err := DecodeTuple([]byte{}, s); err == nil {
		t.Error("truncated bitmap must fail")
	}
	if _, _, err := DecodeTuple([]byte{0x00, 1, 2}, s); err == nil {
		t.Error("truncated int must fail")
	}
}

func TestQuickTupleRoundtrip(t *testing.T) {
	s := MustSchema(
		Column{Name: "a", Type: TInt},
		Column{Name: "b", Type: TText},
	)
	fn := func(a int64, bs []byte, aNull bool) bool {
		r := Row{Int(a), Text(string(bs))}
		if aNull {
			r[0] = NullOf(TInt)
		}
		buf, err := EncodeTuple(nil, s, r)
		if err != nil {
			return false
		}
		got, _, err := DecodeTuple(buf, s)
		if err != nil {
			return false
		}
		if got[0].Null != aNull {
			return false
		}
		if !aNull && got[0].I != a {
			return false
		}
		return got[1].S == string(bs)
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
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
	ff := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka := EncodeKey(nil, Float(a))
		kb := EncodeKey(nil, Float(b))
		return sign(bytes.Compare(ka, kb)) == sign(Compare(Float(a), Float(b)))
	}
	if err := quick.Check(ff, nil); err != nil {
		t.Fatal(err)
	}
	fs := func(a, b string) bool {
		ka := EncodeKey(nil, Text(a))
		kb := EncodeKey(nil, Text(b))
		return sign(bytes.Compare(ka, kb)) == sign(Compare(Text(a), Text(b)))
	}
	if err := quick.Check(fs, nil); err != nil {
		t.Fatal(err)
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

func TestKeyDecodeRoundtrip(t *testing.T) {
	vals := []Value{Int(-5), Float(3.25), Text("a\x00b"), NullOf(TInt), Int(1 << 62)}
	key := EncodeKey(nil, vals...)
	got, n, err := DecodeKey(key, len(vals))
	if err != nil || n != len(key) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	for i := range vals {
		if vals[i].Null != got[i].Null {
			t.Fatalf("null mismatch at %d", i)
		}
		if !vals[i].Null && Compare(vals[i], got[i]) != 0 {
			t.Fatalf("mismatch at %d: %v vs %v", i, vals[i], got[i])
		}
	}
}

func TestTextKeyZeroBytes(t *testing.T) {
	// Strings containing 0x00 must keep correct relative order.
	a := EncodeKey(nil, Text("a\x00"))
	b := EncodeKey(nil, Text("a\x00\x00"))
	c := EncodeKey(nil, Text("a\x01"))
	if !(bytes.Compare(a, b) < 0 && bytes.Compare(b, c) < 0) {
		t.Fatal("zero-byte escaping breaks order")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), Text("x")}
	c := r.Clone()
	c[0] = Int(9)
	if r[0].I != 1 {
		t.Fatal("clone aliases the original")
	}
	if r.String() != "(1, x)" {
		t.Fatalf("row string: %q", r.String())
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
