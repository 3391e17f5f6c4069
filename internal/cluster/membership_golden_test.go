package cluster

import (
	"encoding/hex"
	"testing"
)

// goldenPMBR is the encoding of goldenPlan as generated before the codec
// moved to internal/wire, and goldenPMBRAllocs the decoder's allocation count
// on it at the same commit. They pin the format, not an implementation: no
// change to the codec may move a byte or add an allocation.
const (
	goldenPMBR       = "52424d500100060000000300000003000000000000000000e03f02000000030000000400000000000000000000000000004000000000020000000000000004000000000000000000004001000000000000000100000001000000"
	goldenPMBRAllocs = 7
)

func goldenPlan() *MembershipPlan {
	return &MembershipPlan{Universe: 6, Initial: 3, Events: []MemberEvent{
		{TimeSec: 0.5, Join: []int{3, 4}},
		{TimeSec: 2, Leave: []int{0, 4}},
		{TimeSec: 2, Join: []int{0}, Leave: []int{1}},
	}}
}

func TestGoldenBlob(t *testing.T) {
	blob := EncodeMembershipPlan(goldenPlan())
	if got := hex.EncodeToString(blob); got != goldenPMBR {
		t.Fatalf("PMBR blob moved:\n got %s\nwant %s", got, goldenPMBR)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeMembershipPlan(blob); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > goldenPMBRAllocs {
		t.Errorf("DecodeMembershipPlan allocates %v times, %d when the blob was pinned", allocs, goldenPMBRAllocs)
	}
}
