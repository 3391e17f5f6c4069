package cluster

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pepscale/internal/wire/wiretest"
)

func TestMembershipPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan *MembershipPlan
		want string // substring of the error; "" means valid
	}{
		{"nil", nil, ""},
		{"minimal", &MembershipPlan{Universe: 1, Initial: 1}, ""},
		{"joinLeave", &MembershipPlan{Universe: 4, Initial: 2, Events: []MemberEvent{
			{TimeSec: 1, Join: []int{2}},
			{TimeSec: 2, Leave: []int{0}},
			{TimeSec: 2, Join: []int{0, 3}, Leave: []int{1}},
		}}, ""},
		{"zeroUniverse", &MembershipPlan{Universe: 0, Initial: 0}, "Universe"},
		{"initialTooBig", &MembershipPlan{Universe: 2, Initial: 3}, "Initial"},
		{"timeRegression", &MembershipPlan{Universe: 3, Initial: 2, Events: []MemberEvent{
			{TimeSec: 5, Join: []int{2}}, {TimeSec: 1, Leave: []int{2}},
		}}, "before predecessor"},
		{"negativeTime", &MembershipPlan{Universe: 2, Initial: 1, Events: []MemberEvent{
			{TimeSec: -1, Join: []int{1}},
		}}, "invalid time"},
		{"emptyEvent", &MembershipPlan{Universe: 2, Initial: 1, Events: []MemberEvent{{TimeSec: 1}}}, "empty"},
		{"unsorted", &MembershipPlan{Universe: 4, Initial: 1, Events: []MemberEvent{
			{TimeSec: 1, Join: []int{2, 1}},
		}}, "ascending"},
		{"joinActive", &MembershipPlan{Universe: 2, Initial: 2, Events: []MemberEvent{
			{TimeSec: 1, Join: []int{1}},
		}}, "already-active"},
		{"leaveInactive", &MembershipPlan{Universe: 3, Initial: 1, Events: []MemberEvent{
			{TimeSec: 1, Leave: []int{2}},
		}}, "inactive"},
		{"leaveOutOfRange", &MembershipPlan{Universe: 2, Initial: 2, Events: []MemberEvent{
			{TimeSec: 1, Leave: []int{5}},
		}}, "outside"},
		{"emptiesMembership", &MembershipPlan{Universe: 2, Initial: 1, Events: []MemberEvent{
			{TimeSec: 1, Leave: []int{0}},
		}}, "empty"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestMembershipEventApply: leaves before joins, ascending, never empty, and
// tolerant of what a crash-filtered schedule can still contain.
func TestMembershipEventApply(t *testing.T) {
	members := []int{0, 2, 5}
	for _, tc := range []struct {
		name string
		ev   MemberEvent
		dead map[int]bool
		want []int
	}{
		{"leave-then-join", MemberEvent{Leave: []int{2}, Join: []int{1, 7}}, nil, []int{0, 1, 5, 7}},
		{"rejoin-in-one-event", MemberEvent{Leave: []int{5}, Join: []int{5}}, nil, []int{0, 2, 5}},
		{"leave-of-non-member", MemberEvent{Leave: []int{3}}, nil, []int{0, 2, 5}},
		{"join-of-member", MemberEvent{Join: []int{2}}, nil, []int{0, 2, 5}},
		{"join-of-dead", MemberEvent{Join: []int{1, 3}}, map[int]bool{3: true}, []int{0, 1, 2, 5}},
		{"last-member-stays", MemberEvent{Leave: []int{0, 2, 5}}, nil, []int{5}},
	} {
		if got := tc.ev.Apply(members, tc.dead); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	if !reflect.DeepEqual(members, []int{0, 2, 5}) {
		t.Errorf("Apply modified its input: %v", members)
	}
}

// TestMembershipProfilesDeterministicAndValid: both generators are pure
// functions of their arguments and always emit validating schedules.
func TestMembershipProfilesDeterministicAndValid(t *testing.T) {
	for _, p0 := range []int{1, 2, 4, 16} {
		for _, spares := range []int{0, 1, 3} {
			for seed := int64(0); seed < 4; seed++ {
				spot := SpotMembershipPlan(p0, spares, 5, 100, seed)
				if err := spot.Validate(); err != nil {
					t.Fatalf("spot(%d,%d,seed=%d): %v", p0, spares, seed, err)
				}
				if again := SpotMembershipPlan(p0, spares, 5, 100, seed); !reflect.DeepEqual(spot, again) {
					t.Fatalf("spot(%d,%d,seed=%d) not deterministic", p0, spares, seed)
				}
				auto := AutoscaleMembershipPlan(p0, spares, 100, seed)
				if err := auto.Validate(); err != nil {
					t.Fatalf("autoscale(%d,%d,seed=%d): %v", p0, spares, seed, err)
				}
				if again := AutoscaleMembershipPlan(p0, spares, 100, seed); !reflect.DeepEqual(auto, again) {
					t.Fatalf("autoscale(%d,%d,seed=%d) not deterministic", p0, spares, seed)
				}
			}
		}
	}
	// The autoscale profile must actually use its spare capacity.
	auto := AutoscaleMembershipPlan(4, 3, 50, 1)
	if len(auto.Events) != 6 {
		t.Fatalf("autoscale(4,3) has %d events, want 6", len(auto.Events))
	}
}

func TestMembershipCodecRoundTrip(t *testing.T) {
	plans := []*MembershipPlan{
		{Universe: 1, Initial: 1},
		{Universe: 6, Initial: 3, Events: []MemberEvent{
			{TimeSec: 0.25, Join: []int{3, 4}},
			{TimeSec: 1.75, Leave: []int{0, 3}},
			{TimeSec: 1.75, Join: []int{0, 5}, Leave: []int{1}},
		}},
		SpotMembershipPlan(8, 4, 6, 40, 99),
		AutoscaleMembershipPlan(8, 4, 40, 99),
	}
	for i, mp := range plans {
		blob := EncodeMembershipPlan(mp)
		got, err := DecodeMembershipPlan(blob)
		if err != nil {
			t.Fatalf("plan %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, mp) {
			t.Fatalf("plan %d: round trip diverged:\n%+v\nvs\n%+v", i, got, mp)
		}
		if re := EncodeMembershipPlan(got); !bytes.Equal(re, blob) {
			t.Fatalf("plan %d: re-encode not byte-identical", i)
		}
	}
}

func TestMembershipDecodeRejects(t *testing.T) {
	good := EncodeMembershipPlan(SpotMembershipPlan(4, 2, 3, 10, 7))
	cases := map[string][]byte{
		"empty":     {},
		"badMagic":  append([]byte{1, 2, 3, 4}, good[4:]...),
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte{}, good...), 0),
	}
	// An invalid schedule (join of an active rank) must fail Validate inside
	// Decode.
	bad := &MembershipPlan{Universe: 2, Initial: 2, Events: []MemberEvent{{TimeSec: 1, Join: []int{0}}}}
	cases["semantics"] = EncodeMembershipPlan(bad)
	// A universe Validate would have to allocate a table for is rejected
	// before it runs.
	cases["hugeUniverse"] = EncodeMembershipPlan(&MembershipPlan{Universe: maxUniverse + 1, Initial: 1})
	for name, blob := range cases {
		if _, err := DecodeMembershipPlan(blob); !errors.Is(err, errMembership) {
			t.Errorf("%s: error %v, want errMembership", name, err)
		}
	}
}

// TestMembershipHostileCounts: a fictitious event or rank count is rejected
// before anything is allocated for it.
func TestMembershipHostileCounts(t *testing.T) {
	wiretest.HostileCounts(t, EncodeMembershipPlan(goldenPlan()),
		map[int]uint32{14: 3, 26: 2, 38: 0}, // events, joins and leaves of event 0
		func(b []byte) error { _, err := DecodeMembershipPlan(b); return err }, errMembership)
}

// TestAdmissionFlow drives the full dormant-rank protocol: park, admit with
// a payload, graceful depart back to dormancy, re-admission, and release.
func TestAdmissionFlow(t *testing.T) {
	m, err := New(Config{Ranks: 3, Members: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if m.ActiveCount() != 1 || !m.Active(0) || m.Active(1) || m.Active(-1) || m.Active(3) {
		t.Fatal("initial membership wrong")
	}
	var joined, rejoined atomic.Int64
	err = m.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			r.Admit([]int{1}, []byte("state-v1"))
			tag, _ := r.Recv(1) // rank 1's departure notice
			if tag != "leaving" {
				t.Errorf("got tag %q", tag)
			}
			r.Admit([]int{1}, []byte("state-v2"))
			r.Recv(1)
			r.Release(1)
			r.Release(2)
			return nil
		case 1:
			pay, ok := r.AwaitAdmission()
			if !ok || string(pay) != "state-v1" {
				t.Errorf("first admission: ok=%v payload=%q", ok, pay)
			}
			joined.Add(1)
			r.Depart()
			r.Send(0, "leaving", nil)
			pay, ok = r.AwaitAdmission()
			if !ok || string(pay) != "state-v2" {
				t.Errorf("second admission: ok=%v payload=%q", ok, pay)
			}
			rejoined.Add(1)
			r.Depart()
			r.Send(0, "leaving", nil)
			if _, ok := r.AwaitAdmission(); ok {
				t.Error("expected release")
			}
			return nil
		default:
			if _, ok := r.AwaitAdmission(); ok {
				t.Error("rank 2 expected release")
			}
			return nil
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if joined.Load() != 1 || rejoined.Load() != 1 {
		t.Fatalf("joined=%d rejoined=%d", joined.Load(), rejoined.Load())
	}
}

// TestAdmitAfterLeaveBarrier pins the host order of a leave that is
// followed by a re-admission at the next synchronization point: rank 1 leaves
// through LeaveBarrier and rank 0 admits it again as soon as its own barrier
// returns. The sleep is host time only; it makes rank 0's Admit run before
// rank 1's Depart, which is fatal ("rank 1 already active") if the membership
// bit flips there instead of before the barrier.
func TestAdmitAfterLeaveBarrier(t *testing.T) {
	m, err := New(Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(func(r *Rank) error {
		both := r.Group([]int{0, 1})
		if r.ID() == 0 {
			both.Barrier()
			r.Admit([]int{1}, []byte("back"))
			return nil
		}
		both.LeaveBarrier()
		time.Sleep(20 * time.Millisecond)
		r.Depart()
		if pay, ok := r.AwaitAdmission(); !ok || string(pay) != "back" {
			t.Errorf("re-admission: ok=%v payload=%q", ok, pay)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !m.Active(1) {
		t.Fatal("rank 1 is not active after its re-admission")
	}
}

// TestAdmissionChargesArrival: the joiner's clock advances to the admission
// message's arrival time, so a rank admitted deep into a run cannot observe
// virtual time before its admission.
func TestAdmissionChargesArrival(t *testing.T) {
	m, err := New(Config{Ranks: 2, Members: []int{0}, Cost: GigabitCluster()})
	if err != nil {
		t.Fatal(err)
	}
	var joinClock float64
	err = m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Compute(3.5)
			r.Admit([]int{1}, make([]byte, 1<<20))
			return nil
		}
		if _, ok := r.AwaitAdmission(); !ok {
			t.Error("expected admission")
		}
		joinClock = r.Time()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if joinClock <= 3.5 {
		t.Fatalf("joiner clock %v, want > 3.5 (send time plus transfer)", joinClock)
	}
}

// TestAdmitRejectsBadTargets pins the membership-safety contract: admission
// of active or out-of-universe ranks is a program error.
func TestAdmitRejectsBadTargets(t *testing.T) {
	m, err := New(Config{Ranks: 2, Members: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rep := m.RunWithReport(func(r *Rank) error {
		if r.ID() == 0 {
			r.Admit([]int{1}, nil) // rank 1 is already active
		}
		return nil
	})
	if rep.Err == nil || !rep.Fatal {
		t.Fatalf("double admission not fatal: %+v", rep)
	}
	m.Reset()
	rep = m.RunWithReport(func(r *Rank) error {
		if r.ID() == 0 {
			r.Admit([]int{7}, nil) // outside the universe
		}
		return nil
	})
	if rep.Err == nil || !rep.Fatal {
		t.Fatalf("out-of-universe admission not fatal: %+v", rep)
	}
}

func TestConfigMembersValidated(t *testing.T) {
	if _, err := New(Config{Ranks: 2, Members: []int{2}}); err == nil {
		t.Fatal("out-of-range member accepted")
	}
	if _, err := New(Config{Ranks: 2, Members: []int{0, 0}}); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

// TestResetRestoresMembership: satellite contract — Reset reverts the
// active set to the configured roster so a reset machine replays an elastic
// schedule from its starting membership.
func TestResetRestoresMembership(t *testing.T) {
	m, err := New(Config{Ranks: 3, Members: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Admit([]int{1}, nil)
			r.Release(2)
			return nil
		}
		if r.ID() == 1 {
			r.AwaitAdmission()
			return nil
		}
		r.AwaitAdmission()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Active(1) {
		t.Fatal("rank 1 should be active after admission")
	}
	m.Reset()
	if m.Active(1) || m.Active(2) || !m.Active(0) || m.ActiveCount() != 1 {
		t.Fatal("Reset did not restore the configured membership")
	}
}

// TestGroupCollectives: sub-communicators over an active subset work while
// dormant ranks sit parked, and identical memberships share a rendezvous.
func TestGroupCollectives(t *testing.T) {
	m, err := New(Config{Ranks: 4, Members: []int{0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	err = m.Run(func(r *Rank) error {
		switch r.ID() {
		case 0, 2:
			c := r.Group([]int{2, 0}) // order does not matter
			if c.Size() != 2 {
				t.Errorf("group size %d", c.Size())
			}
			sum := c.AllreduceInt64(OpSum, int64(r.ID()+1))
			if sum != 4 {
				t.Errorf("rank %d: sum %d, want 4", r.ID(), sum)
			}
			f := c.AllreduceFloat64(OpMax, float64(r.ID()))
			if f != 2 {
				t.Errorf("rank %d: max %v, want 2", r.ID(), f)
			}
			got := c.Allgather([]byte{byte(r.ID())})
			if len(got) != 2 || got[0][0] != 0 || got[1][0] != 2 {
				t.Errorf("rank %d: allgather %v", r.ID(), got)
			}
			blobs := c.Gather(0, []byte{byte(10 + r.ID())})
			if c.Index() == 0 {
				if len(blobs) != 2 || blobs[0][0] != 10 || blobs[1][0] != 12 {
					t.Errorf("gather at root: %v", blobs)
				}
			} else if blobs != nil {
				t.Errorf("gather at non-root returned %v", blobs)
			}
			if r.ID() == 0 {
				r.Release(1)
				r.Release(3)
			}
			return nil
		default:
			r.AwaitAdmission()
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResetClearsGroupRegistry: a fatal abort can poison a group rendezvous
// round; Reset must rebuild it so the next run's group collectives complete
// with fresh state instead of consuming stale arrivals.
func TestResetClearsGroupRegistry(t *testing.T) {
	m, err := New(Config{Ranks: 3})
	if err != nil {
		t.Fatal(err)
	}
	errBoom := errors.New("boom")
	rep := m.RunWithReport(func(r *Rank) error {
		if r.ID() == 2 {
			return errBoom // fatal: aborts ranks 0 and 1 inside the group barrier
		}
		r.Group([]int{0, 1, 2}).Barrier()
		return nil
	})
	if rep.Err == nil {
		t.Fatal("expected the aborted run to fail")
	}
	m.Reset()
	err = m.Run(func(r *Rank) error {
		v := r.Group([]int{0, 1, 2}).AllreduceInt64(OpSum, 1)
		if v != 3 {
			t.Errorf("rank %d: sum %d, want 3", r.ID(), v)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("post-reset group collective: %v", err)
	}
}
