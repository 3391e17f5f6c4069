package core

import (
	"encoding/hex"
	"testing"

	"pepscale/internal/digest"
	"pepscale/internal/placement"
)

func goldenCands() []candEntry {
	return []candEntry{
		{Mass: 904.47, GID: 17, ID: "sp|P1", Seq: []byte("PEPTIDEK"), Sites: []digest.ModSite{{Pos: 3, Mod: 1}, {Pos: 300, Mod: 0}}},
		{Mass: 277.12, GID: -1, ID: "", Seq: []byte("MK")},
	}
}

// goldenAdmissionState is a boundary of a p0 = 3 run: members {0,1,3}
// becoming {0,3,4} at step 5.
func goldenAdmissionState() (st *elasticState, newMembers []int, p0 int) {
	sw := &sweeper{
		plan: &placement.Plan{Blocks: 3, Groups: 3, Members: []int{0, 1, 3},
			BlockOwner: []int{0, 1, 3}, GroupOwner: []int{3, 0, 1}},
		gen:   []int32{0, 2, 1},
		bases: []int32{0, 40, 95},
	}
	return &elasticState{sweeper: sw, eventIdx: 2, s: 5}, []int{0, 3, 4}, 3
}

// The golden blobs are the four headerless engine formats as generated
// before the codec moved to internal/wire, with the decoders' allocation
// counts on them at the same commit. They pin the formats, not an
// implementation: no change to the codec may move a byte or add an
// allocation.
func TestGoldenBlobs(t *testing.T) {
	cands, err := marshalCands(goldenCands())
	if err != nil {
		t.Fatal(err)
	}
	st, newMembers, p0 := goldenAdmissionState()
	for _, g := range []struct {
		name   string
		blob   []byte
		decode func([]byte) error
		hex    string
		allocs float64
	}{
		{"results", encodeResults(wireSampleResults()), func(b []byte) error { _, err := decodeResults(b); return err },
			"0200000004000000060000007363616e3d3433333333334a90400200000008000000504550544944454b010000000500000073707c5031f6285c8fc2438c400000000000c042400a0000004d5b2b31352e39395d4b000000000500000073707c5030f6285c8fc251724000000000000002400000000000000000010000000000000000000000", 7},
		{"batch", encodeBatch(wireSampleBatch()), func(b []byte) error { _, err := decodeBatch(b); return err },
			"0300000007000000000000000c0000000300000002000000713766666666664a80400200000002000000666666666646594000000000000008406666666666466f40000000000000f83f0000000000000000000000000100000000000000030000007131323333333333138d400300000001000000c3f5285c8f025640000000000000d03f", 9},
		{"cands", cands, func(b []byte) error { _, err := unmarshalCands(b); return err },
			"f6285c8fc2438c401100000005080273707c5031504550544944454b0300012c010052b81e85eb517140ffffffff0002004d4b", 6},
		{"admission", encodeAdmission(st, newMembers, p0), func(b []byte) error { _, err := decodeAdmission(b, p0); return err },
			"0500000002000000030000000000000001000000030000000300000000000000030000000400000000000000280000005f0000000000000002000000010000000300000000000000010000000300000003000000030000000000000001000000", 7},
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
