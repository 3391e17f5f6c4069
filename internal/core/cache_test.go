package core

import (
	"reflect"
	"testing"

	"pepscale/internal/digest"
	"pepscale/internal/fasta"
	"pepscale/internal/sortmz"
)

// TestCachedDecodersDoNotAlias pins what lets the transport loops reuse their
// two buffers: everything the run cache derives from a transported block is
// copied out of the bytes, so overwriting the buffer with the next block
// leaves the cached value as it was.
func TestCachedDecodersDoNotAlias(t *testing.T) {
	fastaImg := []byte(">sp|P1 first protein\nMKWVTFISLLK\nAAAR\n>sp|P2\nPEPTIDEKR\n")
	seqImg := sortmz.MarshalSeqs([]sortmz.Seq{
		{GID: 7, Key: 1200, Rec: fasta.Record{ID: "sp|P1", Seq: []byte("MKWVTFISLLK")}},
		{GID: 9, Key: 1300, Rec: fasta.Record{ID: "sp|P2", Seq: []byte("PEPTIDEKR")}},
	})
	candImg, err := marshalCands([]candEntry{
		{Mass: 1200.5, GID: 7, ID: "sp|P1", Seq: []byte("MKWVTFISLLK"), Sites: []digest.ModSite{{Pos: 0, Mod: 1}}},
		{Mass: 1300.25, GID: 9, ID: "sp|P2", Seq: []byte("PEPTIDEKR")},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		img    []byte
		decode func(c *indexCache, raw []byte) (interface{}, error)
	}{
		{"recsFor", fastaImg, func(c *indexCache, raw []byte) (interface{}, error) { return c.recsFor(blockKey(0, len(raw)), raw) }},
		{"seqsFor", seqImg, func(c *indexCache, raw []byte) (interface{}, error) { return c.seqsFor(blockKey(0, len(raw)), raw) }},
		{"candsFor", candImg, func(c *indexCache, raw []byte) (interface{}, error) { return c.candsFor(blockKey(0, len(raw)), raw) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.decode(newIndexCache(), append([]byte(nil), tc.img...))
			if err != nil {
				t.Fatal(err)
			}
			cache := newIndexCache()
			buf := append([]byte(nil), tc.img...)
			if _, err := tc.decode(cache, buf); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = '#' // the next block lands in the same buffer
			}
			got, err := tc.decode(cache, buf)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.ValueOf(got).Len() == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("cached value changed with the buffer it was decoded from:\n got %v\nwant %v", got, want)
			}
		})
	}
}
