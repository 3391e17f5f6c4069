package sortmz

import (
	"encoding/hex"
	"testing"

	"pepscale/internal/fasta"
	"pepscale/internal/wire/wiretest"
)

// encodeSeqs is the sequence image of seqs through the product encoder.
func encodeSeqs(seqs []Seq) []byte {
	img := []byte{}
	for _, s := range seqs {
		img = appendSeq(img, s)
	}
	return img
}

// goldenSeqs covers every field of the sequence image, including a negative
// gid, the largest key and an empty id and sequence.
func goldenSeqs() []Seq {
	return []Seq{
		{GID: 17, Key: 1042, Rec: fasta.Record{ID: "sp|P1", Seq: []byte("PEPTIDEK")}},
		{GID: -1, Key: MaxKey, Rec: fasta.Record{ID: "", Seq: []byte{}}},
	}
}

// The golden blobs are the sequence image and the boundary tuple as generated
// before the codec moved to internal/wire, with the sequence decoder's
// allocation count at the same commit (the decoder that yields records
// aliasing the image allocates as often: three columns and the IDs' one
// string). They pin the formats: no change to the codec may move a byte or
// add an allocation.
func TestGoldenBlobs(t *testing.T) {
	for _, g := range []struct {
		name   string
		blob   []byte
		decode func([]byte) error
		hex    string
		allocs float64
	}{
		{"seqs", encodeSeqs(goldenSeqs()), func(b []byte) error { _, err := UnmarshalSeqs(b); return err },
			"110000001204000005000800000073707c5031504550544944454bffffffffe0930400000000000000", 4},
		{"boundary", encodeBoundary(Boundary{Lo: 301, Hi: -2}), func(b []byte) error { _, err := decodeBoundary(b); return err },
			"2d010000feffffff", 0},
	} {
		if got := hex.EncodeToString(g.blob); got != g.hex {
			t.Errorf("%s blob moved:\n got %s\nwant %s", g.name, got, g.hex)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := g.decode(g.blob); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > g.allocs {
			t.Errorf("%s decode allocates %v times, %v when the blob was pinned", g.name, allocs, g.allocs)
		}
	}
}

// FuzzUnmarshalSeqs: arbitrary blobs must never panic the sequence-image
// decoder, every rejection wraps errWire, and accepted blobs re-encode
// through the product encoder to the identical bytes.
func FuzzUnmarshalSeqs(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeSeqs(goldenSeqs()))
	f.Add(encodeSeqs(goldenSeqs()[:1]))
	wiretest.Canonical(f, UnmarshalSeqs, func(b Block) []byte { return encodeSeqs(blockSeqs(b)) }, errWire)
}

// FuzzDecodeBoundary: same contract for the boundary tuple every rank
// gathers from every other.
func FuzzDecodeBoundary(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeBoundary(Boundary{Lo: 301, Hi: -2}))
	wiretest.Canonical(f, decodeBoundary, encodeBoundary, errWire)
}

// TestWireHostileCounts: the sequence length is checked against the bytes
// behind it before the sequence is allocated.
func TestWireHostileCounts(t *testing.T) {
	wiretest.HostileCounts(t, encodeSeqs(goldenSeqs()), map[int]uint32{10: 8}, // seqLen of record 0
		func(b []byte) error { _, err := UnmarshalSeqs(b); return err }, errWire)
}
