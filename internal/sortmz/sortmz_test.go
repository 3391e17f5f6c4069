package sortmz

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"pepscale/internal/chem"
	"pepscale/internal/cluster"
	"pepscale/internal/fasta"
	"pepscale/internal/synth"
)

func testDB(n int) []fasta.Record {
	return synth.GenerateDB(synth.SizedSpec(n))
}

// runSort distributes db across p ranks block-wise and runs the parallel
// counting sort, returning every rank's result.
func runSort(t *testing.T, db []fasta.Record, p int) []*Result {
	t.Helper()
	m, err := cluster.New(cluster.Config{Ranks: p, Cost: cluster.GigabitCluster()})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, p)
	err = m.Run(func(r *cluster.Rank) error {
		lo, hi := len(db)*r.ID()/p, len(db)*(r.ID()+1)/p
		local := make([]Seq, 0, hi-lo)
		for i := lo; i < hi; i++ {
			local = append(local, Seq{GID: int32(i), Rec: db[i]})
		}
		res, err := Sort(r, local, Params{MassType: chem.Mono})
		if err != nil {
			return err
		}
		results[r.ID()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// localSeqs decodes a rank's sorted image.
func localSeqs(t *testing.T, res *Result) []Seq {
	t.Helper()
	b, err := UnmarshalSeqs(res.Image)
	if err != nil {
		t.Fatal(err)
	}
	return blockSeqs(b)
}

// blockSeqs lists a decoded block's records as sequences.
func blockSeqs(b Block) []Seq {
	out := make([]Seq, len(b.Recs))
	for i := range out {
		out[i] = Seq{GID: b.GIDs[i], Key: b.Keys[i], Rec: b.Recs[i]}
	}
	return out
}

func TestKeyBounds(t *testing.T) {
	if Key([]byte{}, chem.Mono) <= 0 {
		t.Error("empty sequence key should be water+proton > 0")
	}
	long := make([]byte, 100000)
	for i := range long {
		long[i] = 'W'
	}
	if Key(long, chem.Mono) != MaxKey {
		t.Error("huge sequence should clamp at MaxKey")
	}
}

func TestKeyMatchesMass(t *testing.T) {
	seq := []byte("MKVLAGHW")
	m, _ := chem.PeptideMass(seq, chem.Mono)
	want := int32(m + chem.ProtonMass)
	if got := Key(seq, chem.Mono); got != want {
		t.Errorf("Key = %d, want %d", got, want)
	}
}

// TestSortIsGlobalSortedPermutation: the core invariant, across rank
// counts — the concatenation of per-rank outputs is the input multiset in
// globally non-decreasing key order.
func TestSortIsGlobalSortedPermutation(t *testing.T) {
	db := testDB(150)
	for _, p := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			results := runSort(t, db, p)
			var all []Seq
			for _, res := range results {
				all = append(all, localSeqs(t, res)...)
			}
			if len(all) != len(db) {
				t.Fatalf("lost sequences: %d vs %d", len(all), len(db))
			}
			// Global non-decreasing order across rank boundaries.
			for i := 1; i < len(all); i++ {
				if all[i].Key < all[i-1].Key {
					t.Fatalf("global order violated at %d: %d < %d", i, all[i].Key, all[i-1].Key)
				}
			}
			// Permutation: every GID exactly once, record content intact.
			seen := map[int32]bool{}
			for _, s := range all {
				if seen[s.GID] {
					t.Fatalf("duplicate gid %d", s.GID)
				}
				seen[s.GID] = true
				if string(s.Rec.Seq) != string(db[s.GID].Seq) {
					t.Fatalf("sequence %d corrupted in transit", s.GID)
				}
			}
			// Equal keys land on a single rank (paper requirement).
			keyOwner := map[int32]int{}
			for rank, res := range results {
				for _, s := range localSeqs(t, res) {
					if prev, ok := keyOwner[s.Key]; ok && prev != rank {
						t.Fatalf("key %d split across ranks %d and %d", s.Key, prev, rank)
					}
					keyOwner[s.Key] = rank
				}
			}
		})
	}
}

func TestSortBalance(t *testing.T) {
	db := testDB(400)
	p := 4
	results := runSort(t, db, p)
	total := 0
	for _, r := range db {
		total += len(r.Seq)
	}
	ideal := total / p
	for rank, res := range results {
		var got int
		for _, s := range localSeqs(t, res) {
			got += len(s.Rec.Seq)
		}
		if got > 2*ideal {
			t.Errorf("rank %d holds %d residues; ideal %d — imbalance too high", rank, got, ideal)
		}
	}
}

func TestBoundariesConsistent(t *testing.T) {
	db := testDB(200)
	p := 4
	results := runSort(t, db, p)
	// All ranks agree on the boundary table.
	for rank := 1; rank < p; rank++ {
		if !reflect.DeepEqual(results[0].Boundaries, results[rank].Boundaries) {
			t.Fatalf("boundary tables disagree between rank 0 and %d", rank)
		}
	}
	bounds := results[0].Boundaries
	// Boundaries reflect actual content and ascend.
	lastHi := int32(-1)
	for rank, res := range results {
		b := bounds[rank]
		local := localSeqs(t, res)
		if len(local) == 0 {
			if !b.Empty() {
				t.Errorf("rank %d empty but boundary %+v", rank, b)
			}
			continue
		}
		if b.Lo != local[0].Key || b.Hi != local[len(local)-1].Key {
			t.Errorf("rank %d boundary %+v vs content [%d,%d]", rank, b, local[0].Key, local[len(local)-1].Key)
		}
		if b.Lo <= lastHi {
			t.Errorf("rank %d boundary overlaps predecessor", rank)
		}
		lastHi = b.Hi
	}
}

func TestSenderGroupStart(t *testing.T) {
	bounds := []Boundary{{Lo: 100, Hi: 200}, {Lo: 201, Hi: 300}, {Lo: 1, Hi: 0}, {Lo: 301, Hi: 400}}
	cases := []struct {
		minKey int32
		want   int
	}{
		{0, 0}, {150, 0}, {201, 1}, {300, 1}, {301, 3}, {350, 3}, {401, 4},
	}
	for _, c := range cases {
		if got := SenderGroupStart(bounds, c.minKey); got != c.want {
			t.Errorf("SenderGroupStart(%d) = %d, want %d", c.minKey, got, c.want)
		}
	}
	if SenderGroupStart(nil, 5) != 0 {
		t.Error("empty bounds should return 0 (== len)")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := func(seed uint16, n8 uint8) bool {
		n := int(n8 % 10)
		seqs := make([]Seq, n)
		state := uint64(seed) + 1
		for i := range seqs {
			state = state*6364136223846793005 + 1
			l := int(state % 30)
			seq := make([]byte, l)
			for j := range seq {
				seq[j] = chem.Residues[int(state>>33)%20]
				state = state*6364136223846793005 + 1
			}
			seqs[i] = Seq{
				GID: int32(state % 10000),
				Key: int32(state % 300000),
				Rec: fasta.Record{ID: fmt.Sprintf("id-%d-%d", seed, i), Seq: seq},
			}
		}
		back, err := UnmarshalSeqs(MarshalSeqs(seqs))
		if err != nil {
			return false
		}
		if len(seqs) == 0 {
			return len(back.Recs) == 0
		}
		return reflect.DeepEqual(seqs, blockSeqs(back))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	seqs := []Seq{{GID: 1, Key: 2, Rec: fasta.Record{ID: "x", Seq: []byte("MK")}}}
	buf := MarshalSeqs(seqs)
	for cut := 1; cut < len(buf); cut++ {
		if _, err := UnmarshalSeqs(buf[:cut]); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestSortTimeGrowsWithRanks(t *testing.T) {
	// The Table IV effect: with the ring-cost count-array allreduce, the
	// sort's virtual time grows with p.
	db := testDB(100)
	sortSec := func(p int, ring bool) float64 {
		m, err := cluster.New(cluster.Config{Ranks: p, Cost: cluster.GigabitCluster()})
		if err != nil {
			t.Fatal(err)
		}
		var out float64
		err = m.Run(func(r *cluster.Rank) error {
			lo, hi := len(db)*r.ID()/p, len(db)*(r.ID()+1)/p
			local := make([]Seq, 0, hi-lo)
			for i := lo; i < hi; i++ {
				local = append(local, Seq{GID: int32(i), Rec: db[i]})
			}
			res, err := Sort(r, local, Params{MassType: chem.Mono, RingAllreduce: ring})
			if err != nil {
				return err
			}
			if r.ID() == 0 {
				out = res.SortSec
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	t4 := sortSec(4, true)
	t16 := sortSec(16, true)
	if t16 <= t4 {
		t.Errorf("ring sort time should grow with p: p=4 %v, p=16 %v", t4, t16)
	}
	if tree := sortSec(16, false); tree >= t16 {
		t.Errorf("tree allreduce (%v) should beat ring (%v)", tree, t16)
	}
}

func TestSortSingleRank(t *testing.T) {
	db := testDB(20)
	results := runSort(t, db, 1)
	local := localSeqs(t, results[0])
	if len(local) != 20 {
		t.Fatal("p=1 sort lost records")
	}
	keys := make([]int, 0, 20)
	for _, s := range local {
		keys = append(keys, int(s.Key))
	}
	if !sort.IntsAreSorted(keys) {
		t.Error("p=1 output not sorted")
	}
}
