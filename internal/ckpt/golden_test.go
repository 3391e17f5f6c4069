package ckpt

import (
	"encoding/hex"
	"testing"
)

// goldenPCKP is fuzzSeedGroup().Encode() as generated before the codec moved
// to internal/wire. It pins the format, not an implementation: no change to
// the codec may move a byte of it.
const goldenPCKP = "504b43500100000003000000070000003930000000000000020000000200000008000000504550544944454b020000000500000073707c5031f6285c8fc2438c400000000000404540020000004d4b000000000500000073707c503052b81e85eb517140000000000000f43f00000000"

// goldenDecodeAllocs is Decode's allocation count on that blob at the same
// commit; the shared codec may not allocate more.
const goldenDecodeAllocs = 7

func TestGoldenBlob(t *testing.T) {
	blob := fuzzSeedGroup().Encode()
	if got := hex.EncodeToString(blob); got != goldenPCKP {
		t.Fatalf("PCKP blob moved:\n got %s\nwant %s", got, goldenPCKP)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Decode(blob); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > goldenDecodeAllocs {
		t.Errorf("Decode allocates %v times, %d when the blob was pinned", allocs, goldenDecodeAllocs)
	}
}
