// Package wiretest is the test harness every blob format built on
// internal/wire is held to.
package wiretest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// Canonical fuzzes one format's decoder from the seeds already added to f:
// it never panics, every rejection wraps the package's sentinel, and every
// blob it accepts re-encodes to exactly the input bytes, so valid values and
// valid blobs are in bijection.
func Canonical[T any](f *testing.F, decode func([]byte) (T, error), encode func(T) []byte, sentinel error) {
	f.Fuzz(func(t *testing.T, b []byte) {
		v, err := decode(b)
		if err != nil {
			if !errors.Is(err, sentinel) {
				t.Fatalf("rejection %q does not wrap %q", err, sentinel)
			}
			return
		}
		if re := encode(v); !bytes.Equal(re, b) {
			t.Fatalf("accepted blob is not canonical:\n in: %x\nout: %x", b, re)
		}
	})
}

// HostileCounts holds a decoder to the bounds-before-allocate rule at each
// count field of valid, given as offset → the count valid holds there: the
// blob cut after the field and zero-padded to 64 bytes must be rejected with
// the sentinel when the count reads 0xFFFFFFFF, in no more allocations than
// when it reads 0 — the slice the count asks for would be one more.
func HostileCounts(t *testing.T, valid []byte, counts map[int]uint32, decode func([]byte) error, sentinel error) {
	t.Helper()
	for off, want := range counts {
		if got := binary.LittleEndian.Uint32(valid[off:]); got != want {
			t.Errorf("offset %d holds %d, not the count %d", off, got, want)
			continue
		}
		blob := append([]byte(nil), valid[:off+4]...)
		for len(blob) < 64 {
			blob = append(blob, 0)
		}
		count := blob[off : off+4]
		copy(count, "\x00\x00\x00\x00")
		base := testing.AllocsPerRun(20, func() { _ = decode(blob) })
		copy(count, "\xff\xff\xff\xff")
		if err := decode(blob); !errors.Is(err, sentinel) {
			t.Errorf("count at offset %d: error %v does not wrap %q", off, err, sentinel)
		}
		if got := testing.AllocsPerRun(20, func() { _ = decode(blob) }); got > base {
			t.Errorf("count at offset %d: %v allocations, %v for a count of 0: a slice was made for it", off, got, base)
		}
	}
}
