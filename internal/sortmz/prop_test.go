package sortmz

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pepscale/internal/chem"
	"pepscale/internal/fasta"
)

// dbWithLengths builds one record per entry of lens, each a homopolymer of
// glycines, so the key distribution is controlled directly through the
// sequence lengths (key ≈ 57·len + water + proton).
func dbWithLengths(lens []int) []fasta.Record {
	db := make([]fasta.Record, len(lens))
	for i, l := range lens {
		seq := make([]byte, l)
		for j := range seq {
			seq[j] = 'G'
		}
		db[i] = fasta.Record{ID: fmt.Sprintf("prop-%d", i), Seq: seq}
	}
	return db
}

// TestSortMatchesSerialReference is the property test for the parallel
// counting sort: across rank counts and key distributions — including the
// degenerate all-equal and single-bucket extremes — the concatenated
// per-rank output must agree with a serial sort.Slice reference on the key
// sequence and be a permutation of the input GIDs.
func TestSortMatchesSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))

	uniform := func(n, lo, hi int) []int {
		lens := make([]int, n)
		for i := range lens {
			lens[i] = lo + rng.Intn(hi-lo+1)
		}
		return lens
	}
	dists := []struct {
		name string
		lens []int
	}{
		{"all-equal", uniform(120, 20, 20)},                              // every key identical: one bucket, one owner
		{"single-bucket", uniform(90, 3, 3)},                             // tiny masses: the whole db in the lowest bucket
		{"uniform", uniform(150, 1, 400)},                                // keys spread over the range
		{"skewed", append(uniform(140, 5, 8), uniform(10, 300, 400)...)}, // heavy head, sparse tail
		{"empty", nil}, // no sequences at all
	}

	for _, d := range dists {
		for _, p := range []int{1, 2, 4, 7} {
			t.Run(fmt.Sprintf("%s/p=%d", d.name, p), func(t *testing.T) {
				db := dbWithLengths(d.lens)
				results := runSort(t, db, p)

				// Serial reference: the same keys through sort.Slice.
				want := make([]int32, len(db))
				for i, rec := range db {
					want[i] = Key(rec.Seq, chem.Mono)
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

				var got []int32
				seen := make(map[int32]bool, len(db))
				for _, res := range results {
					for _, s := range localSeqs(t, res) {
						got = append(got, s.Key)
						if seen[s.GID] {
							t.Fatalf("gid %d delivered twice", s.GID)
						}
						seen[s.GID] = true
						if k := Key(db[s.GID].Seq, chem.Mono); k != s.Key {
							t.Fatalf("gid %d carries key %d, recomputed %d", s.GID, s.Key, k)
						}
					}
				}
				if len(got) != len(want) {
					t.Fatalf("parallel sort returned %d sequences, input had %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("key sequence diverges from serial reference at %d: %d != %d", i, got[i], want[i])
					}
				}
				// Equal keys may not straddle ranks (the paper's bucket rule).
				owner := map[int32]int{}
				for rank, res := range results {
					for _, s := range localSeqs(t, res) {
						if prev, ok := owner[s.Key]; ok && prev != rank {
							t.Fatalf("key %d split across ranks %d and %d", s.Key, prev, rank)
						}
						owner[s.Key] = rank
					}
				}
			})
		}
	}
}
