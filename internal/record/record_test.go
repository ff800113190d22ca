package record

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
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
		{Int(-1), Int(1<<63 - 1), Int(7), Int(5)},
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

// TestStoredTupleLayout pins the record format: an n-column tuple is exactly
// 8·n little-endian bytes, column i at 8·i, and a NULL has no stored form.
func TestStoredTupleLayout(t *testing.T) {
	s := MustSchema(Column{Name: "fid", Type: TInt}, Column{Name: "tid", Type: TInt}, Column{Name: "cost", Type: TInt})
	buf, err := EncodeTuple([]byte{0xAA}, s, Row{Int(1), Int(-2), Int(1 << 40)})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0xAA, 1, 0, 0, 0, 0, 0, 0, 0, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 1, 0, 0}
	if !bytes.Equal(buf, want) {
		t.Fatalf("EncodeTuple = % x, want % x", buf, want)
	}
	for i := range 3 {
		r := Row{Int(1), Int(2), Int(3)}
		r[i] = null
		if got, err := EncodeTuple(nil, s, r); err == nil || !strings.Contains(err.Error(), s.Columns[i].Name) {
			t.Errorf("EncodeTuple(%v) = % x, %v; want an error naming column %s", r, got, err, s.Columns[i].Name)
		}
	}
}

func TestTupleErrors(t *testing.T) {
	s := MustSchema(Column{Name: "a", Type: TInt})
	if _, err := EncodeTuple(nil, s, Row{Int(1), Int(2)}); err == nil {
		t.Error("arity mismatch must fail")
	}
	// Any length but 8 is malformed for one column: short, long, or the
	// bitmap byte of the layout that stored NULLs.
	for _, src := range [][]byte{{}, {1, 2}, {0, 7, 0, 0, 0, 0, 0, 0, 0}, make([]byte, 16)} {
		if r, n, err := DecodeTuple(src, s); err == nil {
			t.Errorf("DecodeTuple(% x) = %v, %d; want an error", src, r, n)
		}
	}
}

func TestQuickTupleRoundtrip(t *testing.T) {
	s := MustSchema(
		Column{Name: "a", Type: TInt},
		Column{Name: "b", Type: TInt},
	)
	fn := func(a, b int64) bool {
		r := Row{Int(a), Int(b)}
		buf, err := EncodeTuple(nil, s, r)
		if err != nil || len(buf) != 16 {
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
// comparison answers on the decoded row, for every satisfied-set and column,
// and every tuple shorter or longer than 8 bytes a column is an error,
// whatever the preds.
func TestMatchAgreesWithDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 2000; round++ {
		n := 1 + rng.Intn(20)
		cols := make([]Column, n)
		row := make(Row, n)
		for i := range cols {
			cols[i] = Column{Name: fmt.Sprintf("c%d", i), Type: TInt}
			row[i] = Int(int64(rng.Intn(5) - 2))
		}
		buf, err := EncodeTuple(nil, MustSchema(cols...), row)
		if err != nil {
			t.Fatal(err)
		}
		preds := make([]Pred, 1+rng.Intn(3))
		want := true
		for i := range preds {
			p := Pred{Col: rng.Intn(n), Sat: uint8(rng.Intn(8)), Val: int64(rng.Intn(5) - 2)}
			preds[i] = p
			want = want && p.Sat>>uint(Compare(row[p.Col], Int(p.Val))+1)&1 != 0
		}
		if got, err := Match(buf, n, preds); err != nil || got != want {
			t.Fatalf("row %v preds %+v: Match = %v, %v; want %v", row, preds, got, err, want)
		}
		for cut := 0; cut < len(buf); cut++ {
			if _, err := Match(buf[:cut], n, preds); err == nil {
				t.Fatalf("row %v cut to %d of %d bytes: no error", row, cut, len(buf))
			}
		}
		if _, err := Match(append(buf, 0), n, preds); err == nil {
			t.Fatalf("row %v with a byte appended: no error", row)
		}
	}
}

// FuzzMatch: on any tuple bytes, 1 to 20 columns and up to three preds
// (spec, 10 bytes each: column, satisfied set, operand), Match answers what
// comparing DecodeInto's values answers wherever the tuple is 8 bytes a
// column, and is an error, as DecodeInto is, at any other length.
func FuzzMatch(f *testing.F) {
	encodePreds := func(preds ...Pred) []byte {
		var b []byte
		for _, p := range preds {
			b = binary.LittleEndian.AppendUint64(append(b, byte(p.Col), p.Sat), uint64(p.Val))
		}
		return b
	}
	schemas := make([]*Schema, 21)
	for n := 1; n <= 20; n++ {
		cols := make([]Column, n)
		for i := range cols {
			cols[i] = Column{Name: fmt.Sprintf("c%d", i), Type: TInt}
		}
		schemas[n] = MustSchema(cols...)
	}
	// Exact, under preds that hold and preds that fail; one byte short; one
	// byte over (the bitmap byte of the layout that stored NULLs); a column
	// over; and, where the bitmap had padding bits, that layout's tuple with
	// a NULL in it. Column i holds i+1, so last column = n and last column >
	// 0 hold on the exact tuple and last column < 0 fails: a compare that
	// misplaces the column or misreads its order disagrees.
	for _, n := range []int{1, 3, 7, 8, 9, 16, 20} {
		row := make(Row, n)
		for i := range row {
			row[i] = Int(int64(i + 1))
		}
		preds := encodePreds(Pred{Col: n - 1, Sat: 2, Val: int64(n)}, Pred{Col: n - 1, Sat: 4, Val: 0})
		flat, _ := EncodeTuple(nil, schemas[n], row)
		f.Add(flat, uint8(n-1), preds)
		f.Add(flat, uint8(n-1), encodePreds(Pred{Col: n - 1, Sat: 1, Val: 0}))
		f.Add(flat[:len(flat)-1], uint8(n-1), preds)
		f.Add(append([]byte{0}, flat...), uint8(n-1), preds)
		f.Add(append(flat, 0, 0, 0, 0, 0, 0, 0, 0), uint8(n-1), preds)
		if n%8 != 0 {
			f.Add(append([]byte{1}, flat[8:]...), uint8(n-1), preds)
		}
	}
	f.Fuzz(func(t *testing.T, src []byte, cols uint8, spec []byte) {
		n := 1 + int(cols)%20
		var preds []Pred
		for ; len(spec) >= 10 && len(preds) < 3; spec = spec[10:] {
			preds = append(preds, Pred{Col: int(spec[0]) % n, Sat: spec[1], Val: int64(binary.LittleEndian.Uint64(spec[2:]))})
		}
		got, err := Match(src, n, preds)
		row := make(Row, n)
		_, derr := DecodeInto(row, src, schemas[n], nil)
		if len(src) != 8*n {
			if err == nil || derr == nil {
				t.Fatalf("%d bytes of %d columns: Match %v, %v; DecodeInto %v", len(src), n, got, err, derr)
			}
			return
		}
		match := true
		for _, p := range preds {
			match = match && p.Sat>>uint(Compare(row[p.Col], Int(p.Val))+1)&1 != 0
		}
		if err != nil || derr != nil || got != match {
			t.Fatalf("row %v preds %+v: Match = %v, %v; decoded compare %v (%v)", row, preds, got, err, match, derr)
		}
	})
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
