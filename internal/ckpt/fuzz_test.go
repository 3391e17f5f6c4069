package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"pepscale/internal/topk"
	"pepscale/internal/wire/wiretest"
)

// fuzzSeedGroup is a small but fully-populated checkpoint used to seed the
// corpus alongside the committed testdata/fuzz entries.
func fuzzSeedGroup() *Group {
	return &Group{
		Group:      3,
		Cursor:     7,
		Candidates: 12345,
		Queries: []Query{
			{Hits: []topk.Hit{
				{Peptide: "PEPTIDEK", Protein: 2, ProteinID: "sp|P1", Mass: 904.47, Score: 42.5},
				{Peptide: "MK", Protein: 0, ProteinID: "sp|P0", Mass: 277.12, Score: 1.25},
			}},
			{Hits: nil},
		},
	}
}

// addSeeds adds the shared seed blobs to f.
func addSeeds(f *testing.F) {
	valid := fuzzSeedGroup().Encode()
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated tail
	mutated := append([]byte(nil), valid...)
	mutated[0] ^= 0xff // bad magic
	f.Add(mutated)
}

// FuzzDecode hammers the checkpoint decoder with arbitrary blobs: it must
// never panic, must reject structural garbage with ErrCorrupt, and any blob
// it does accept must re-encode to the bytes it was given.
func FuzzDecode(f *testing.F) {
	addSeeds(f)
	wiretest.Canonical(f, Decode, (*Group).Encode, ErrCorrupt)
}

// FuzzRestore holds the restart decoder to the reference one on arbitrary
// blobs, through the same canonical harness: the decode it fuzzes is Decode,
// checked against Restore into lists of the shape the blob claims. Restore
// must reject what Decode rejects, accept what Decode accepts unless the
// header is out of shape (ErrShape), and then hold exactly what offering
// Decode's hits retains. A disagreement comes back as an error outside
// ErrCorrupt, which the harness reports.
func FuzzRestore(f *testing.F) {
	addSeeds(f)
	wiretest.Canonical(f, func(b []byte) (*Group, error) {
		g, err := Decode(b)
		if err := restoreAgrees(b, g, err); err != nil {
			return nil, err
		}
		return g, err
	}, (*Group).Encode, ErrCorrupt)
}

// restoreAgrees compares Restore on b with Decode's outcome g, decErr.
func restoreAgrees(b []byte, g *Group, decErr error) error {
	group, n := int32(0), 0
	if len(b) >= HeaderSize {
		group = int32(binary.LittleEndian.Uint32(b[8:]))
		n = min(int(binary.LittleEndian.Uint32(b[24:])), len(b)/4)
	}
	lists := make([]*topk.List, n)
	for i := range lists {
		lists[i] = topk.New(len(b))
	}
	cursor, cands, err := Restore(b, group, math.MaxInt32, lists)
	switch {
	case decErr != nil:
		if err == nil {
			return fmt.Errorf("Restore accepted a blob Decode rejects (%v)", decErr)
		}
		return nil
	case g.Cursor < 0 || g.Candidates < 0:
		if !errors.Is(err, ErrShape) {
			return fmt.Errorf("Restore = %v on a negative cursor or count, want ErrShape", err)
		}
		return nil
	case err != nil:
		return fmt.Errorf("Restore rejected a blob Decode accepts: %v", err)
	case cursor != int(g.Cursor) || cands != g.Candidates:
		return fmt.Errorf("Restore read cursor %d, candidates %d; Decode %d, %d", cursor, cands, g.Cursor, g.Candidates)
	}
	want := offered(g, len(b))
	for i, l := range lists {
		// Compared in wire form: a NaN mass or score equals itself bit for bit.
		if got := l.AppendSorted(nil); !bytes.Equal(topk.AppendHits(nil, got), topk.AppendHits(nil, want[i])) {
			return fmt.Errorf("query %d: Restore holds %v, offering Decode's hits %v", i, got, want[i])
		}
	}
	return nil
}
