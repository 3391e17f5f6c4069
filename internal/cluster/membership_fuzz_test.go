package cluster

import (
	"testing"

	"pepscale/internal/wire/wiretest"
)

// FuzzDecodeMembershipPlan fuzzes the membership-schedule codec. The
// invariants: Decode never panics; every rejection is errMembership (Decode
// ends with Validate, so an accepted blob describes a valid schedule); and
// the codec is canonical — an accepted blob re-encodes to exactly itself, so
// there is a bijection between valid schedules and valid blobs. The checked-in seed corpus lives under
// testdata/fuzz/FuzzDecodeMembershipPlan.
func FuzzDecodeMembershipPlan(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeMembershipPlan(&MembershipPlan{Universe: 1, Initial: 1}))
	f.Add(EncodeMembershipPlan(SpotMembershipPlan(4, 2, 3, 10, 1)))
	f.Add(EncodeMembershipPlan(AutoscaleMembershipPlan(4, 3, 20, 2)))
	f.Add(EncodeMembershipPlan(&MembershipPlan{Universe: 6, Initial: 3, Events: []MemberEvent{
		{TimeSec: 0.5, Join: []int{3, 4}},
		{TimeSec: 2, Leave: []int{0, 4}},
		{TimeSec: 2, Join: []int{0}, Leave: []int{1}},
	}}))
	wiretest.Canonical(f, DecodeMembershipPlan, EncodeMembershipPlan, errMembership)
}
