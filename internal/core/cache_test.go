package core

import (
	"reflect"
	"sync"
	"sync/atomic"
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
		{"seqsFor", seqImg, func(c *indexCache, raw []byte) (interface{}, error) {
			b, err := c.seqsFor(blockKey(0, len(raw)), raw)
			if err != nil {
				return nil, err
			}
			return b.recs, nil
		}},
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

// TestIndexCacheSingleFlight drives the lock-free hit path against inserts
// and table growth from many goroutines at once: keys whose hashes force the
// dense table to grow several times, two sizes under one hash (the second
// falls back to the map) and a content-hash key (map only). Every key is
// built once and every caller sees the same value. Run under -race.
func TestIndexCacheSingleFlight(t *testing.T) {
	keys := []cacheKey{{hash: 1 << 40, size: 5, kind: kindRecords}, {hash: 7, size: 99, kind: kindRecords}}
	for h := uint64(0); h < 600; h += 7 {
		keys = append(keys, cacheKey{hash: h, size: 10, kind: kindRecords})
	}
	const workers = 64
	cache := newIndexCache()
	builds := make([]atomic.Int32, len(keys))
	seen := make([][]*int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen[w] = make([]*int, len(keys))
			for j := range keys {
				i := (j*13 + w*5) % len(keys) // each worker its own order
				v, err := cache.getOrBuild(keys[i], func() (interface{}, error) {
					builds[i].Add(1)
					return new(int), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				seen[w][i] = v.(*int)
			}
		}(w)
	}
	wg.Wait()
	for i := range keys {
		if n := builds[i].Load(); n != 1 {
			t.Errorf("key %+v built %d times", keys[i], n)
		}
		for w := range seen {
			if seen[w][i] == nil || seen[w][i] != seen[0][i] {
				t.Fatalf("key %+v: worker %d saw %p, worker 0 saw %p", keys[i], w, seen[w][i], seen[0][i])
			}
		}
	}
	if t0 := cache.dense[kindRecords].Load(); t0 == nil || len(*t0) < 596 {
		t.Errorf("dense table did not grow to cover the block keys")
	}
	if len(cache.m) != 2 {
		t.Errorf("map holds %d entries, want the content-hash key and the size-mismatched one", len(cache.m))
	}
}
