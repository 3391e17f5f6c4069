package wire

import (
	"errors"
	"math"
	"testing"
)

var errTest = errors.New("wire test: corrupt")

type record struct {
	a  uint8
	b  uint16
	c  uint32
	d  uint64
	e  float64
	s  string
	xs []uint32
}

func (v record) encode() []byte {
	b := append([]byte(nil), v.a)
	b = U16(b, v.b)
	b = U32(b, v.c)
	b = U64(b, v.d)
	b = F64(b, v.e)
	b = Str(b, v.s)
	b = U32(b, uint32(len(v.xs)))
	for _, x := range v.xs {
		b = U32(b, x)
	}
	return b
}

func decodeRecord(blob []byte) (record, error) {
	r := NewReader(blob, errTest)
	v := record{a: r.U8(), b: r.U16(), c: r.U32(), d: r.U64(), e: r.F64(), s: r.Str()}
	if n := r.Count(4); n > 0 {
		v.xs = make([]uint32, n)
		for i := range v.xs {
			v.xs[i] = r.U32()
		}
	}
	return v, r.Finish()
}

// TestReaderEveryOffset cuts a blob holding every field type at every offset:
// the whole blob reads back exactly, every proper prefix and every extension
// fails with the sentinel, and no cut panics.
func TestReaderEveryOffset(t *testing.T) {
	want := record{a: 0xab, b: 0xbeef, c: 0xdeadbeef, d: 1 << 63, e: math.Copysign(0, -1), s: "PEPTIDEK", xs: []uint32{1, 2, 3}}
	blob := want.encode()
	got, err := decodeRecord(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.a != want.a || got.b != want.b || got.c != want.c || got.d != want.d ||
		math.Float64bits(got.e) != math.Float64bits(want.e) || got.s != want.s || len(got.xs) != 3 || got.xs[2] != 3 {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	for n := 0; n < len(blob); n++ {
		if _, err := decodeRecord(blob[:n]); !errors.Is(err, errTest) {
			t.Errorf("cut at %d of %d: error %v does not wrap the sentinel", n, len(blob), err)
		}
	}
	if _, err := decodeRecord(append(blob[:len(blob):len(blob)], 0)); !errors.Is(err, errTest) {
		t.Errorf("trailing byte: error %v does not wrap the sentinel", err)
	}
}

// TestReaderSticky: after the first short read every read returns zero and
// consumes nothing, whatever is asked for.
func TestReaderSticky(t *testing.T) {
	r := NewReader([]byte{1, 2, 3}, errTest)
	if r.U32() != 0 || r.U8() != 0 || r.U16() != 0 || r.U64() != 0 || r.F64() != 0 ||
		r.Str() != "" || r.Bytes(1) != nil || r.Count(1) != 0 || r.Len() != 0 {
		t.Fatal("a read after a failed read returned data")
	}
	if err := r.Finish(); !errors.Is(err, errTest) {
		t.Fatalf("Finish = %v", err)
	}
	r = NewReader([]byte{1}, errTest)
	if r.Bytes(-1) != nil || r.Finish() == nil {
		t.Fatal("negative length accepted")
	}
}

// TestCountBoundsBeforeAllocate: a count is accepted exactly when that many
// minimum-size elements fit in what remains.
func TestCountBoundsBeforeAllocate(t *testing.T) {
	blob := append(U32(nil, 3), make([]byte, 12)...)
	for min, want := range map[int]int{1: 3, 4: 3, 5: 0, 28: 0} {
		r := NewReader(blob, errTest)
		if got := r.Count(min); got != want {
			t.Errorf("Count(%d) = %d, want %d", min, got, want)
		}
	}
	r := NewReader(U32(nil, math.MaxUint32), errTest)
	if r.Count(1) != 0 || !errors.Is(r.Finish(), errTest) {
		t.Error("a count of 2^32-1 over an empty tail was accepted")
	}
}

// TestReadsDoNotAllocate pins the success path: nothing but the string and
// the caller's own slice is allocated.
func TestReadsDoNotAllocate(t *testing.T) {
	blob := record{s: "", xs: nil}.encode()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := decodeRecord(blob); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("decoding fixed-width fields allocates %v times", n)
	}
}
