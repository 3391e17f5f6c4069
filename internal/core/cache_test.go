package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"pepscale/internal/cluster"
	"pepscale/internal/digest"
	"pepscale/internal/fasta"
	"pepscale/internal/sortmz"
)

// TestCachedDecodersDoNotAlias: a parsed FASTA block's records own their
// bytes (the parse upper-cases and drops whitespace), so overwriting the
// bytes leaves the cached records as they were. The other decoders alias the
// window they decode (TestSeqsForReadsOwnImageInPlace,
// TestCandsForReadsImageInPlace).
func TestCachedDecodersDoNotAlias(t *testing.T) {
	t.Run("recsFor", func(t *testing.T) {
		img := []byte(">sp|P1 first protein\nMKWVTFISLLK\nAAAR\n>sp|P2\nPEPTIDEKR\n")
		want, err := newIndexCache().recsFor(blockKey(0, len(img)), img)
		if err != nil {
			t.Fatal(err)
		}
		cache := newIndexCache()
		buf := append([]byte(nil), img...)
		if _, err := cache.recsFor(blockKey(0, len(buf)), buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = '#'
		}
		got, err := cache.recsFor(blockKey(0, len(buf)), buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("cached records changed with the bytes they were parsed from:\n got %v\nwant %v", got, want)
		}
	})
}

// TestCandsForReadsImageInPlace: a candidate block is decoded without
// copying its sequences, each a capped window of the image.
func TestCandsForReadsImageInPlace(t *testing.T) {
	want := []candEntry{
		{Mass: 1200.5, GID: 7, ID: "sp|P1", Seq: []byte("MKWVTFISLLK"), Sites: []digest.ModSite{{Pos: 0, Mod: 1}}},
		{Mass: 1300.25, GID: 9, ID: "sp|P2", Seq: []byte("PEPTIDEKR")},
	}
	img, err := marshalCands(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := newIndexCache().candsFor(blockKey(0, len(img)), img)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
	lo, hi := uintptr(unsafe.Pointer(&img[0])), uintptr(unsafe.Pointer(&img[len(img)-1]))
	for i, e := range got {
		if at := uintptr(unsafe.Pointer(&e.Seq[0])); at < lo || at > hi {
			t.Errorf("entry %d's sequence was copied out of the image", i)
		}
		if cap(e.Seq) != len(e.Seq) {
			t.Errorf("entry %d's sequence has capacity %d beyond its length %d", i, cap(e.Seq), len(e.Seq))
		}
	}
}

// sortedImage is the sequence image a one-rank counting sort of seqs
// exposes.
func sortedImage(t *testing.T, seqs []sortmz.Seq) []byte {
	t.Helper()
	m, err := cluster.New(cluster.Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	var img []byte
	err = m.Run(func(r *cluster.Rank) error {
		res, err := sortmz.Sort(r, seqs, sortmz.Params{})
		if res != nil {
			img = res.Image
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestSeqsForReadsOwnImageInPlace: an exposed image, a rank's own or a
// fetched one, is decoded without a copy, every record's sequence a capped
// window of it, and idOf finds each record's ID by gid and names an unknown
// gid by number.
func TestSeqsForReadsOwnImageInPlace(t *testing.T) {
	seqs := []sortmz.Seq{
		{GID: 30, Rec: fasta.Record{ID: "sp|P3", Seq: []byte("GGGGGGGGGGGK")}},
		{GID: 4, Rec: fasta.Record{ID: "sp|P1", Seq: []byte("MKWVTFISLLK")}},
		{GID: 12, Rec: fasta.Record{ID: "", Seq: []byte("AK")}},
	}
	img := sortedImage(t, seqs)
	b, err := newIndexCache().seqsFor(blockKey(0, len(img)), img)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.recs) != len(seqs) {
		t.Fatalf("decoded %d records, sorted %d", len(b.recs), len(seqs))
	}
	lo, hi := uintptr(unsafe.Pointer(&img[0])), uintptr(unsafe.Pointer(&img[len(img)-1]))
	for i, rec := range b.recs {
		if at := uintptr(unsafe.Pointer(&rec.Seq[0])); at < lo || at > hi {
			t.Errorf("record %d's sequence was copied out of the image", i)
		}
		if cap(rec.Seq) != len(rec.Seq) {
			t.Errorf("record %d's sequence has capacity %d beyond its length %d", i, cap(rec.Seq), len(rec.Seq))
		}
	}
	for _, s := range seqs {
		if got := b.idOf(s.GID); got != s.Rec.ID {
			t.Errorf("idOf(%d) = %q, want %q", s.GID, got, s.Rec.ID)
		}
	}
	if got := b.idOf(5); got != "protein_5" {
		t.Errorf("idOf of an unknown gid = %q", got)
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
