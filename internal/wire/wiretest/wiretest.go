// Package wiretest is the test harness every blob format built on
// internal/wire is held to.
package wiretest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
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
// blob cut after the field and zero-padded to 64 bytes, its count set to
// 0xFFFFFFFF, must be rejected with the sentinel having allocated next to
// nothing — the slice the count asks for would be gigabytes. Bytes are
// measured, not allocations: which error a decoder builds, and so how many
// small objects, depends on the path the blob takes.
func HostileCounts(t *testing.T, valid []byte, counts map[int]uint32, decode func([]byte) error, sentinel error) {
	t.Helper()
	const runs, maxBytesPerRun = 20, 4 << 10
	for off, want := range counts {
		if got := binary.LittleEndian.Uint32(valid[off:]); got != want {
			t.Errorf("offset %d holds %d, not the count %d", off, got, want)
			continue
		}
		blob := append(append([]byte(nil), valid[:off]...), 0xff, 0xff, 0xff, 0xff)
		for len(blob) < 64 {
			blob = append(blob, 0)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := decode(blob); !errors.Is(err, sentinel) {
				t.Fatalf("count at offset %d: error %v does not wrap %q", off, err, sentinel)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > maxBytesPerRun {
			t.Errorf("count at offset %d: rejected after allocating %d bytes", off, per)
		}
	}
}
