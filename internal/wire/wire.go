// Package wire is the repository's one blob codec: append helpers and a
// bounds-checked cursor for the fixed little-endian fields every format is
// made of (DESIGN.md, "Blob codec"). It owns no format — headers, field order
// and validation stay with the package whose values travel — only the rules
// they share: float64s travel as their bits, strings and lists as a u32
// length and their elements, a count is checked against the bytes that
// remain before anything is allocated for it, and a decoder accepts a blob
// only if it consumed all of it.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// U16 appends v.
func U16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

// U32 appends v.
func U32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

// U64 appends v.
func U64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// F64 appends v's bits, so NaN payloads and signed zeros survive.
func F64(b []byte, v float64) []byte { return U64(b, math.Float64bits(v)) }

// Str appends s behind its u32 length.
func Str(b []byte, s string) []byte { return append(U32(b, uint32(len(s))), s...) }

// Ints appends vs behind their u32 count, each as the low 32 bits of its value.
func Ints(b []byte, vs []int) []byte {
	b = U32(b, uint32(len(vs)))
	for _, v := range vs {
		b = U32(b, uint32(v))
	}
	return b
}

// Reader is a cursor over one blob. A read that runs past the end empties the
// cursor and marks it, so every later read fails too and returns zero: a
// decoder reads straight through and checks once, with Finish, whose error
// wraps the sentinel the Reader was made with. Use it by address; no read
// allocates, and none formats anything, which keeps them small enough to
// inline.
type Reader struct {
	b        []byte // the unread tail; nil once a read has failed
	short    bool
	sentinel error
}

// NewReader starts a cursor at b's first byte. Finish's errors wrap sentinel.
func NewReader(b []byte, sentinel error) Reader {
	return Reader{b: b, sentinel: sentinel}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if len(r.b) < 1 {
		r.b, r.short = nil, true
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// U16 reads a uint16.
func (r *Reader) U16() uint16 {
	if len(r.b) < 2 {
		r.b, r.short = nil, true
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	if len(r.b) < 4 {
		r.b, r.short = nil, true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	if len(r.b) < 8 {
		r.b, r.short = nil, true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// F64 reads a float64 from its bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads n bytes. The result aliases the blob.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || len(r.b) < n {
		r.b, r.short = nil, true
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Str reads a string written by Str.
func (r *Reader) Str() string { return string(r.Bytes(int(r.U32()))) }

// Count reads a u32 element count and fails, before the caller allocates
// anything, unless count elements of at least minElemBytes each fit in the
// bytes that remain. A failed Count returns 0.
func (r *Reader) Count(minElemBytes int) int {
	n := r.U32()
	if uint64(n) > uint64(len(r.b)/minElemBytes) {
		r.b, r.short = nil, true
		return 0
	}
	return int(n)
}

// Ints reads a list written by Ints, each value sign-extended from 32 bits;
// the empty list reads as nil.
func (r *Reader) Ints() []int {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = int(int32(r.U32()))
	}
	return vs
}

// Len returns the number of unread bytes; 0 once a read has failed.
func (r *Reader) Len() int { return len(r.b) }

// Finish reports whether the blob was canonical: every read fit, and together
// they consumed all of it.
func (r *Reader) Finish() error {
	switch {
	case r.short:
		return fmt.Errorf("%w: truncated", r.sentinel)
	case len(r.b) != 0:
		return fmt.Errorf("%w: %d trailing bytes", r.sentinel, len(r.b))
	}
	return nil
}
