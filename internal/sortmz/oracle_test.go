package sortmz

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pepscale/internal/chem"
	"pepscale/internal/cluster"
	"pepscale/internal/fasta"
	"pepscale/internal/wire"
)

// The reference below is the counting sort as it was written before Sort
// encoded records in place: a per-key owner table, one []Seq per
// destination, a decoded copy of every received record, a sort.Slice by
// (key, gid) and MarshalSeqs of the result. Sort's image must be
// byte-identical to it.

// MarshalSeqs encodes sequences compactly for the wire:
// [gid int32][key int32][idLen u16][seqLen u32][id][seq] per record.
func MarshalSeqs(seqs []Seq) []byte {
	var n int
	for _, s := range seqs {
		n += 4 + 4 + 2 + 4 + len(s.Rec.ID) + len(s.Rec.Seq)
	}
	out := make([]byte, 0, n)
	for _, s := range seqs {
		out = wire.U32(out, uint32(s.GID))
		out = wire.U32(out, uint32(s.Key))
		out = wire.U16(out, uint16(len(s.Rec.ID)))
		out = wire.U32(out, uint32(len(s.Rec.Seq)))
		out = append(out, s.Rec.ID...)
		out = append(out, s.Rec.Seq...)
	}
	return out
}

// computeOwners assigns each key bucket of a global weighted count array to
// a rank such that cumulative weight is balanced and a bucket is never
// split across ranks. Buckets with zero weight get owner −1.
func computeOwners(global []int64, ranks int) []int32 {
	var total int64
	for _, c := range global {
		total += c
	}
	owner := make([]int32, len(global))
	var cum int64
	for k, c := range global {
		if c == 0 {
			owner[k] = -1
			continue
		}
		mid := cum + (c+1)/2
		o := int32(0)
		if total > 0 {
			o = int32((mid * int64(ranks)) / (total + 1))
		}
		if o >= int32(ranks) {
			o = int32(ranks) - 1
		}
		owner[k] = o
		cum += c
	}
	return owner
}

// referenceSort returns each rank's sorted slice for the given per-rank
// input blocks. Every record must have a nonzero length (the owner table
// gives a key of zero weight no owner).
func referenceSort(blocks [][]Seq, mt chem.MassType) [][]Seq {
	var all []Seq
	maxKey := int32(0)
	for _, b := range blocks {
		for _, s := range b {
			s.Key = Key(s.Rec.Seq, mt)
			maxKey = max(maxKey, s.Key)
			all = append(all, s)
		}
	}
	global := make([]int64, maxKey+1)
	for _, s := range all {
		global[s.Key] += int64(len(s.Rec.Seq))
	}
	owner := computeOwners(global, len(blocks))
	out := make([][]Seq, len(blocks))
	for _, s := range all {
		o := owner[s.Key]
		// The wire round trip: the receiver holds its own copy.
		s.Rec = fasta.Record{ID: s.Rec.ID, Seq: append([]byte{}, s.Rec.Seq...)}
		out[o] = append(out[o], s)
	}
	for _, sorted := range out {
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].Key != sorted[j].Key {
				return sorted[i].Key < sorted[j].Key
			}
			return sorted[i].GID < sorted[j].GID
		})
	}
	return out
}

// sortBlocks runs Sort on a machine of len(blocks) ranks, rank i sorting
// blocks[i].
func sortBlocks(t *testing.T, blocks [][]Seq) []*Result {
	t.Helper()
	m, err := cluster.New(cluster.Config{Ranks: len(blocks), Cost: cluster.GigabitCluster()})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, len(blocks))
	err = m.Run(func(r *cluster.Rank) error {
		local := append([]Seq(nil), blocks[r.ID()]...)
		res, err := Sort(r, local, Params{MassType: chem.Mono, RingAllreduce: true})
		results[r.ID()] = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// randomBlocks deals n records over p ranks: lengths from lens, residues
// drawn from alphabet, IDs cut from "sp|<gid>" at random (the empty ID
// included), gids a permutation of 0..n−1, and the ranks in empty (if any)
// given nothing.
func randomBlocks(rng *rand.Rand, n, p int, lens func() int, alphabet string, empty map[int]bool) [][]Seq {
	gids := rng.Perm(n)
	blocks := make([][]Seq, p)
	var hosts []int
	for o := 0; o < p; o++ {
		if !empty[o] {
			hosts = append(hosts, o)
		}
	}
	for i := 0; i < n; i++ {
		seq := make([]byte, lens())
		for j := range seq {
			seq[j] = alphabet[rng.Intn(len(alphabet))]
		}
		id := fmt.Sprintf("sp|%d", gids[i])
		id = id[:rng.Intn(len(id)+1)]
		o := hosts[rng.Intn(len(hosts))]
		blocks[o] = append(blocks[o], Seq{GID: int32(gids[i]), Rec: fasta.Record{ID: id, Seq: seq}})
	}
	return blocks
}

// TestSortMatchesReferenceImage is the property test for Sort against the
// reference: across rank counts, with duplicate keys, ranks that hold no
// input and ranks that receive nothing, every rank's image is byte for byte
// MarshalSeqs of the reference's sorted slice, its boundary is that slice's
// key range, and UnmarshalSeqs yields the reference's records, gids, keys
// and IDs.
func TestSortMatchesReferenceImage(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	spread := func() int { return 1 + rng.Intn(300) }
	for _, p := range []int{1, 2, 3, 8} {
		cases := []struct {
			name   string
			blocks [][]Seq
		}{
			{"spread", randomBlocks(rng, 200, p, spread, chem.Residues, nil)},
			// Twelve glycine runs over 240 records: runs of equal keys
			// whose order is the gid.
			{"duplicate-keys", randomBlocks(rng, 240, p, func() int { return 5 * (1 + rng.Intn(12)) }, "G", nil)},
			// One key: a single owner, every other rank receives nothing.
			{"one-key", randomBlocks(rng, 60, p, func() int { return 9 }, "G", nil)},
			// Input on rank 0 only; with p = 8, fewer records than ranks.
			{"one-holder", randomBlocks(rng, 5, p, spread, chem.Residues, map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true})},
			{"empty", make([][]Seq, p)},
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("p=%d/%s", p, c.name), func(t *testing.T) {
				want := referenceSort(c.blocks, chem.Mono)
				results := sortBlocks(t, c.blocks)
				receivedNothing := 0
				for o, res := range results {
					if img := MarshalSeqs(want[o]); !bytes.Equal(res.Image, img) {
						t.Fatalf("rank %d: image of %d bytes differs from the reference's %d", o, len(res.Image), len(img))
					}
					b := res.Boundaries[o]
					if len(want[o]) == 0 {
						receivedNothing++
						if !b.Empty() {
							t.Errorf("rank %d received nothing but has boundary %+v", o, b)
						}
					} else if b.Lo != want[o][0].Key || b.Hi != want[o][len(want[o])-1].Key {
						t.Errorf("rank %d: boundary %+v, reference keys [%d, %d]", o, b, want[o][0].Key, want[o][len(want[o])-1].Key)
					}
					got, err := UnmarshalSeqs(res.Image)
					if err != nil {
						t.Fatal(err)
					}
					if gs := blockSeqs(got); len(want[o]) > 0 && !reflect.DeepEqual(gs, want[o]) {
						t.Fatalf("rank %d: decoded records differ from the reference's:\n got %+v\nwant %+v", o, gs, want[o])
					} else if len(want[o]) == 0 && len(gs) != 0 {
						t.Fatalf("rank %d: decoded %d records from an empty slice", o, len(gs))
					}
				}
				if c.name == "one-key" && p > 1 && receivedNothing != p-1 {
					t.Errorf("%d of %d ranks received nothing, want all but the key's owner", receivedNothing, p)
				}
			})
		}
	}
}

// TestSortKeepsEmptySequences: a record with no residues weighs nothing in
// the count array; it still travels, to the rank that owns the keys below
// its own, and the keys stay unsplit.
func TestSortKeepsEmptySequences(t *testing.T) {
	blocks := [][]Seq{
		{{GID: 0, Rec: fasta.Record{ID: "empty", Seq: []byte{}}}, {GID: 1, Rec: fasta.Record{ID: "a", Seq: []byte("MKWVTFISLLK")}}},
		{{GID: 2, Rec: fasta.Record{ID: "b", Seq: []byte("PEPTIDEK")}}, {GID: 3, Rec: fasta.Record{ID: "also-empty"}}},
		{{GID: 4, Rec: fasta.Record{ID: "c", Seq: []byte("GGGGGGGGGGGGGGGGGGGGGGK")}}},
	}
	results := sortBlocks(t, blocks)
	got := map[int32]int{}
	for o, res := range results {
		for _, s := range localSeqs(t, res) {
			got[s.GID] = o
		}
	}
	if len(got) != 5 {
		t.Fatalf("%d of 5 records arrived: %v", len(got), got)
	}
	if got[0] != got[3] {
		t.Errorf("the two empty sequences share a key but landed on ranks %d and %d", got[0], got[3])
	}
}

// TestDecodedSeqIsCapped: a decoded sequence aliases the image but holds no
// spare capacity, so appending to it copies instead of overwriting the next
// record.
func TestDecodedSeqIsCapped(t *testing.T) {
	img := MarshalSeqs([]Seq{
		{GID: 1, Key: 500, Rec: fasta.Record{ID: "x", Seq: []byte("MK")}},
		{GID: 2, Key: 600, Rec: fasta.Record{ID: "y", Seq: []byte("PEPTIDEK")}},
	})
	orig := bytes.Clone(img)
	b, err := UnmarshalSeqs(img)
	if err != nil {
		t.Fatal(err)
	}
	if &b.Recs[0].Seq[0] != &img[4+4+2+4+1] {
		t.Error("the first sequence does not alias the image")
	}
	grown := append(b.Recs[0].Seq, 'W', 'W', 'W', 'W')
	if string(grown) != "MKWWWW" || !bytes.Equal(img, orig) || string(b.Recs[1].Seq) != "PEPTIDEK" || b.Recs[1].ID != "y" {
		t.Errorf("an append to a decoded sequence wrote into the image: %q", img)
	}
}
