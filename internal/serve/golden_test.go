package serve

import (
	"encoding/hex"
	"testing"
)

// The golden frames are fuzzSeedSubmit().Encode() and fuzzSeedResult().Encode()
// as generated before the codec moved to internal/wire, with the decoders'
// allocation counts on them at the same commit. They pin the formats, not an
// implementation: no change to the codec may move a byte or add an
// allocation.
var goldenFrames = []struct {
	name   string
	blob   []byte
	decode func([]byte) error
	hex    string
	allocs float64
}{
	{"PSUB", fuzzSeedSubmit().Encode(), func(b []byte) error { _, err := DecodeSubmit(b); return err },
		"50535542010000000400000061636d650700000000000000000000000000c03f070000007363616e3d34329a99999999238c40020000000200000014ae47e17a4459400000000000c09240a4703d0ad7e365400000000000008940", 5},
	{"PRES", fuzzSeedResult().Encode(), func(b []byte) error { _, err := DecodeResult(b); return err },
		"50524553010000000400000061636d65070000000000000003000000070000007363616e3d3432000000000000c03f000000000000d83f0200000008000000504550544944454b020000000500000073707c5031f6285c8fc2438c400000000000404540020000004d4b000000000500000073707c503052b81e85eb517140000000000000f43f", 8},
}

func TestGoldenBlobs(t *testing.T) {
	for _, g := range goldenFrames {
		if got := hex.EncodeToString(g.blob); got != g.hex {
			t.Errorf("%s frame moved:\n got %s\nwant %s", g.name, got, g.hex)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := g.decode(g.blob); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > g.allocs {
			t.Errorf("%s decode allocates %v times, %v when the frame was pinned", g.name, allocs, g.allocs)
		}
	}
}
