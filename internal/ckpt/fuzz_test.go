package ckpt

import (
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

// FuzzDecode hammers the checkpoint decoder with arbitrary blobs: it must
// never panic, must reject structural garbage with ErrCorrupt, and any blob
// it does accept must re-encode to the bytes it was given.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzSeedGroup().Encode())
	valid := fuzzSeedGroup().Encode()
	f.Add(valid[:len(valid)-3]) // truncated tail
	mutated := append([]byte(nil), valid...)
	mutated[0] ^= 0xff // bad magic
	f.Add(mutated)

	wiretest.Canonical(f, Decode, (*Group).Encode, ErrCorrupt)
}
