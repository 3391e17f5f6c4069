package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"pepscale/internal/ckpt"
	"pepscale/internal/cluster"
	"pepscale/internal/placement"
	"pepscale/internal/topk"
)

// onOneRank runs body on rank 0 of a fresh one-rank machine, with a sweeper
// over a one-block database and an empty store.
func onOneRank(t *testing.T, opt Options, body func(sw *sweeper) error) {
	t.Helper()
	db, _ := backendWorkload(t, 8, 1)
	mach, err := cluster.New(cluster.Config{Ranks: 1, Cost: cluster.GigabitCluster()})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := placement.RoundRobin(1, 1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	rep := mach.RunWithReport(func(r *cluster.Rank) error {
		sn, err := newScanner(opt, newIndexCache())
		if err != nil {
			return err
		}
		return body(newSweeper(r, sn, db, opt, ckpt.NewStore(), "group", plan, make([]int32, 1)))
	})
	if !rep.OK() {
		t.Fatal(rep.Err)
	}
}

// hitGroup returns a group of n queries whose lists of capacity tau were
// offered offers[i] random hits each, with repeated scores.
func hitGroup(rng *rand.Rand, g, tau int, offers []int) *rgroup {
	gr := &rgroup{g: g, cursor: 3, candidates: 12345}
	for _, n := range offers {
		l := topk.New(tau)
		for j := 0; j < n; j++ {
			l.Offer(topk.Hit{
				Peptide:   fmt.Sprintf("PEPT%dIDEK", rng.Intn(40)),
				Protein:   int32(rng.Intn(9)),
				ProteinID: fmt.Sprintf("sp|P%d", rng.Intn(9)),
				Mass:      900 + float64(rng.Intn(50)),
				Score:     float64(rng.Intn(7)),
			})
		}
		gr.lists = append(gr.lists, l)
	}
	return gr
}

// TestCheckpointMatchesEncode: the blob the sweep encodes in place from the
// live lists is byte for byte the reference codec's encoding of the same
// state, for empty lists, full ones and τ = 0, and the lists survive it.
func TestCheckpointMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		tau    int
		offers []int
	}{
		{0, []int{3, 0, 5}},
		{5, []int{0, 0}},
		{5, []int{2, 9, 0, 5}},
		{50, []int{120, 1, 0, 50}},
		{50, nil},
	}
	onOneRank(t, DefaultOptions(), func(sw *sweeper) error {
		for i, tc := range cases {
			gr := hitGroup(rng, i, tc.tau, tc.offers)
			want := ckpt.Group{Group: int32(gr.g), Cursor: int32(gr.cursor), Candidates: gr.candidates, Queries: make([]ckpt.Query, len(gr.lists))}
			for q, l := range gr.lists {
				want.Queries[q].Hits = l.AppendSorted(nil)
			}
			sw.checkpoint(gr)
			got, ok := sw.store.Get(int32(gr.g))
			if !ok || !bytes.Equal(got, want.Encode()) {
				t.Errorf("τ=%d offers %v: checkpoint blob\n %x\nwant Encode's\n %x", tc.tau, tc.offers, got, want.Encode())
			}
			for q, l := range gr.lists {
				if again := l.AppendSorted(nil); !bytes.Equal(topk.AppendHits(nil, again), topk.AppendHits(nil, want.Queries[q].Hits)) {
					t.Errorf("τ=%d offers %v: query %d's list changed under the checkpoint", tc.tau, tc.offers, q)
				}
			}
		}
		return nil
	})
}

// TestCheckpointAllocFree: once a group has been checkpointed, checkpointing
// it again with full τ = 50 lists allocates nothing: the blob is encoded into
// the scanner's scratch and copied into the group's stored blob.
func TestCheckpointAllocFree(t *testing.T) {
	opt := DefaultOptions()
	opt.Tau = 50
	onOneRank(t, opt, func(sw *sweeper) error {
		gr := hitGroup(rand.New(rand.NewSource(9)), 2, opt.Tau, []int{200, 200, 200, 200})
		sw.checkpoint(gr)
		if allocs := testing.AllocsPerRun(20, func() { sw.checkpoint(gr) }); allocs != 0 {
			t.Errorf("a warm checkpoint of %d full lists allocates %v times, want 0", len(gr.lists), allocs)
		}
		return nil
	})
}
