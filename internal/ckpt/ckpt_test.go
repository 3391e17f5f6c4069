package ckpt

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pepscale/internal/topk"
	"pepscale/internal/wire/wiretest"
)

func sampleGroup(seed int64) *Group {
	rng := rand.New(rand.NewSource(seed))
	g := &Group{Group: int32(rng.Intn(16)), Cursor: int32(rng.Intn(8)), Candidates: rng.Int63n(1 << 40)}
	nq := rng.Intn(5)
	g.Queries = make([]Query, nq)
	for i := range g.Queries {
		var hits []topk.Hit // an empty list decodes as nil
		if nh := rng.Intn(4); nh > 0 {
			hits = make([]topk.Hit, nh)
		}
		for j := range hits {
			hits[j] = topk.Hit{
				Peptide:   string(rune('A'+rng.Intn(26))) + "EPTIDEK",
				Protein:   int32(rng.Intn(1000)),
				ProteinID: "sp|P12345|TEST",
				Mass:      rng.Float64() * 3000,
				Score:     rng.NormFloat64() * 10,
			}
		}
		g.Queries[i].Hits = hits
	}
	return g
}

func TestRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := sampleGroup(seed)
		blob := g.Encode()
		back, err := Decode(blob)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(g, back) {
			t.Fatalf("seed %d: round-trip mismatch:\n%+v\n%+v", seed, g, back)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	g := sampleGroup(7)
	if !bytes.Equal(g.Encode(), g.Encode()) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	g := sampleGroup(3)
	blob := g.Encode()
	cases := map[string][]byte{
		"empty":     {},
		"truncated": blob[:len(blob)-3],
		"badMagic":  append([]byte{0, 0, 0, 0}, blob[4:]...),
		"trailing":  append(append([]byte{}, blob...), 0xff),
	}
	for name, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

// TestDecodeHugeCountRejected: a blob claiming 2^32-1 queries, or that many
// hits for its first query, is rejected before anything is allocated for them.
func TestDecodeHugeCountRejected(t *testing.T) {
	wiretest.HostileCounts(t, fuzzSeedGroup().Encode(), map[int]uint32{24: 2, 28: 2},
		func(b []byte) error { _, err := Decode(b); return err }, ErrCorrupt)
}

func TestStore(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get(1); ok {
		t.Fatal("empty store returned a blob")
	}
	s.Put(1, []byte("one"))
	s.Put(2, []byte("two"))
	s.Put(1, []byte("one-v2")) // replaces
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := s.Writes(); got != 3 {
		t.Fatalf("Writes = %d, want 3", got)
	}
	if got := s.Bytes(); got != int64(len("one")+len("two")+len("one-v2")) {
		t.Fatalf("Bytes = %d", got)
	}
	blob, ok := s.Get(1)
	if !ok || string(blob) != "one-v2" {
		t.Fatalf("Get(1) = %q, %v", blob, ok)
	}
	// Returned blob is a private copy.
	blob[0] = 'X'
	again, _ := s.Get(1)
	if string(again) != "one-v2" {
		t.Fatal("Get returned a shared slice")
	}
}

// TestStoreDeleteAndRecycle: Delete drops a group's blob without counting a
// write, and a Put allocates nothing when it rewrites a group in place or
// takes a new group into a deleted group's storage.
func TestStoreDeleteAndRecycle(t *testing.T) {
	s := NewStore()
	blob := fuzzSeedGroup().Encode()
	s.Put(1, blob)
	s.Put(2, blob)
	s.Delete(1)
	s.Delete(9) // absent: a no-op
	if _, ok := s.Get(1); ok || s.Len() != 1 || s.Writes() != 2 {
		t.Fatalf("after Delete(1): Get ok=%v, Len %d, Writes %d; want false, 1, 2", ok, s.Len(), s.Writes())
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Put(2, blob) }); allocs != 0 {
		t.Errorf("rewriting a group allocates %v times, want 0", allocs)
	}
	next := int32(100)
	if allocs := testing.AllocsPerRun(20, func() {
		s.Put(next, blob)
		s.Delete(next)
		next++
	}); allocs != 0 {
		t.Errorf("a new group after a Delete allocates %v times, want 0", allocs)
	}
	if got, _ := s.Get(2); !bytes.Equal(got, blob) {
		t.Error("recycled storage changed another group's blob")
	}
}

// TestStoreConcurrentPutGet: while writers rewrite one group's blob in place,
// readers only ever see a whole blob that some writer put — every byte the
// same value, and as many of them as that value says. Run under -race.
func TestStoreConcurrentPutGet(t *testing.T) {
	s := NewStore()
	blobOf := func(v byte) []byte { return bytes.Repeat([]byte{v}, 8+int(v)) }
	s.Put(0, blobOf(0))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Put(0, blobOf(byte(w*100+i%100)))
			}
		}(w)
	}
	for rd := 0; rd < 2; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				got, ok := s.Get(0)
				if !ok || len(got) == 0 || !bytes.Equal(got, blobOf(got[0])) {
					t.Errorf("Get returned a torn blob: %v", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// restoreInto restores blob into n fresh lists that keep every hit.
func restoreInto(blob []byte, group int32, steps, n int) ([]*topk.List, int, int64, error) {
	lists := make([]*topk.List, n)
	for i := range lists {
		lists[i] = topk.New(len(blob))
	}
	cursor, cands, err := Restore(blob, group, steps, lists)
	return lists, cursor, cands, err
}

// offered is what a restart held before Restore: Decode's hits offered to
// fresh lists, read back best first.
func offered(g *Group, k int) [][]topk.Hit {
	out := make([][]topk.Hit, len(g.Queries))
	for i, q := range g.Queries {
		l := topk.New(k)
		for _, h := range q.Hits {
			l.Offer(h)
		}
		out[i] = l.AppendSorted(nil)
	}
	return out
}

func TestRestoreMatchesDecode(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := sampleGroup(seed)
		blob := g.Encode()
		lists, cursor, cands, err := restoreInto(blob, g.Group, int(g.Cursor), len(g.Queries))
		if err != nil {
			t.Fatalf("seed %d: Restore: %v", seed, err)
		}
		if cursor != int(g.Cursor) || cands != g.Candidates {
			t.Fatalf("seed %d: Restore = cursor %d, candidates %d; want %d, %d", seed, cursor, cands, g.Cursor, g.Candidates)
		}
		want := offered(g, len(blob))
		for i, l := range lists {
			if got := l.AppendSorted(nil); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("seed %d query %d: restored %v, want %v", seed, i, got, want[i])
			}
		}
	}
}

// TestRestoreRejectsShape: a well-formed blob that does not fit the group
// being restored fails with ErrShape and offers nothing.
func TestRestoreRejectsShape(t *testing.T) {
	base := *fuzzSeedGroup() // group 3, cursor 7, two queries
	cases := []struct {
		name  string
		edit  func(g *Group)
		steps int
		n     int
	}{
		{"other group", func(g *Group) { g.Group = 4 }, 8, 2},
		{"negative cursor", func(g *Group) { g.Cursor = -1 }, 8, 2},
		{"cursor past the sweep", func(g *Group) {}, 6, 2},
		{"negative candidates", func(g *Group) { g.Candidates = -1 }, 8, 2},
		{"fewer queries", func(g *Group) {}, 8, 1},
		{"more queries", func(g *Group) {}, 8, 3},
	}
	for _, tc := range cases {
		g := base
		tc.edit(&g)
		lists, _, _, err := restoreInto(g.Encode(), 3, tc.steps, tc.n)
		if !errors.Is(err, ErrShape) {
			t.Errorf("%s: Restore err = %v, want ErrShape", tc.name, err)
		}
		for i, l := range lists {
			if l.Len() != 0 {
				t.Errorf("%s: list %d was offered %d hits before the rejection", tc.name, i, l.Len())
			}
		}
	}
	if _, _, _, err := restoreInto(base.Encode(), 3, math.MaxInt32, 2); err != nil {
		t.Errorf("the unedited blob: %v", err)
	}
}
