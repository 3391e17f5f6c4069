package placement

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestRoundRobinMatchesModularPartition pins the modular contract: over
// members 0..p−1 the plan is the b mod p partition a static core.RunElastic
// starts from.
func TestRoundRobinMatchesModularPartition(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		members := make([]int, p)
		for i := range members {
			members[i] = i
		}
		const p0 = 12
		plan, err := RoundRobin(p0, p0, members)
		if err != nil {
			t.Fatalf("RoundRobin(p=%d): %v", p, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("Validate(p=%d): %v", p, err)
		}
		for b := 0; b < p0; b++ {
			if plan.BlockRank(b) != b%p {
				t.Fatalf("p=%d block %d owned by %d, want %d", p, b, plan.BlockRank(b), b%p)
			}
			if plan.GroupRank(b) != b%p {
				t.Fatalf("p=%d group %d owned by %d, want %d", p, b, plan.GroupRank(b), b%p)
			}
		}
	}
}

// TestRoundRobinSparseMembers checks the modular plan over non-contiguous
// global ids: position in the sorted member list, not the id, selects the
// owner.
func TestRoundRobinSparseMembers(t *testing.T) {
	plan, err := RoundRobin(5, 5, []int{7, 2, 11})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 7, 11, 2, 7}
	if !reflect.DeepEqual(plan.BlockOwner, want) {
		t.Fatalf("BlockOwner = %v, want %v", plan.BlockOwner, want)
	}
	if got := plan.BlocksOf(2); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Fatalf("BlocksOf(2) = %v", got)
	}
	if plan.IsMember(3) || !plan.IsMember(11) {
		t.Fatal("IsMember wrong")
	}
}

func TestSortedMembersRejectsDuplicates(t *testing.T) {
	if _, err := RoundRobin(4, 4, []int{1, 2, 1}); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := RoundRobin(4, 4, nil); err == nil {
		t.Fatal("empty membership accepted")
	}
}

// balanced reports whether every member's load is ⌊n/m⌋ or ⌈n/m⌉.
func balanced(t *testing.T, p *Plan) {
	t.Helper()
	for _, tbl := range [][]int{p.BlockOwner, p.GroupOwner} {
		base := len(tbl) / len(p.Members)
		for _, m := range p.Members {
			load := 0
			for _, o := range tbl {
				if o == m {
					load++
				}
			}
			if load < base || load > base+1 {
				t.Fatalf("member %d holds %d of %d ids across %d members", m, load, len(tbl), len(p.Members))
			}
		}
	}
}

// TestNextIsIdentityWhenMembershipUnchanged pins stability: re-planning over
// the same members moves nothing.
func TestNextIsIdentityWhenMembershipUnchanged(t *testing.T) {
	plan, err := RoundRobin(10, 10, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	next, err := Next(plan, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	migs, err := Rebalance(plan, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(migs) != 0 {
		t.Fatalf("unchanged membership produced %d migrations: %v", len(migs), migs)
	}
}

// TestNextMovesMinimalSetOnLeave: when a member leaves, exactly its ids
// move (the survivors were at or under target and stay put).
func TestNextMovesMinimalSetOnLeave(t *testing.T) {
	plan, err := RoundRobin(12, 12, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	next, err := Next(plan, []int{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	balanced(t, next)
	migs, err := Rebalance(plan, next)
	if err != nil {
		t.Fatal(err)
	}
	// 12 blocks over 4 members = 3 each; dropping one member orphans its 3
	// blocks and 3 groups. 12 over 3 = 4 each, so no survivor is over
	// target: exactly 6 migrations, all From the departed member.
	if len(migs) != 6 {
		t.Fatalf("got %d migrations, want 6: %v", len(migs), migs)
	}
	for _, m := range migs {
		if m.From != 2 {
			t.Fatalf("migration %v moves a surviving member's id", m)
		}
	}
}

// TestNextMovesMinimalSetOnJoin: a joiner receives only the ids the new
// balance targets require, all taken from over-target survivors.
func TestNextMovesMinimalSetOnJoin(t *testing.T) {
	plan, err := RoundRobin(12, 12, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	next, err := Next(plan, []int{0, 1, 2, 9})
	if err != nil {
		t.Fatal(err)
	}
	balanced(t, next)
	migs, err := Rebalance(plan, next)
	if err != nil {
		t.Fatal(err)
	}
	// 12 over 3 = 4 each → 12 over 4 = 3 each: each survivor sheds exactly
	// one block and one group, all landing on the joiner.
	if len(migs) != 6 {
		t.Fatalf("got %d migrations, want 6: %v", len(migs), migs)
	}
	for _, m := range migs {
		if m.To != 9 {
			t.Fatalf("migration %v does not target the joiner", m)
		}
	}
}

// TestNextMoreMembersThanBlocks: members beyond the partition width hold
// nothing but remain valid members.
func TestNextMoreMembersThanBlocks(t *testing.T) {
	plan, err := RoundRobin(2, 2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	next, err := Next(plan, []int{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	migs, err := Rebalance(plan, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(migs) != 0 {
		t.Fatalf("joiners beyond the width forced %d migrations: %v", len(migs), migs)
	}
	if got := next.BlocksOf(4); len(got) != 0 {
		t.Fatalf("member 4 owns %v with only 2 blocks", got)
	}
}

// TestNextDeterministicAcrossScratchReuse: a reused Scratch and a fresh one
// produce identical plans over a random membership walk.
func TestNextDeterministicAcrossScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const p0 = 16
	universe := 24
	plan, err := RoundRobin(p0, p0, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	cur := plan
	for step := 0; step < 50; step++ {
		// Random membership: every universe rank in or out, at least one in.
		var members []int
		for r := 0; r < universe; r++ {
			if rng.Intn(2) == 0 {
				members = append(members, r)
			}
		}
		if len(members) == 0 {
			members = []int{0}
		}
		a, err := s.Next(cur, members)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Next(cur, members)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: scratch reuse diverged:\n%+v\nvs\n%+v", step, a, b)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		balanced(t, a)
		// Every move must be justified: From departed or was over target.
		migs, err := Rebalance(cur, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range migs {
			if a.IsMember(m.From) {
				continue // over-target shedding; balance was asserted above
			}
			if cur.memberIndex(m.From) < 0 {
				t.Fatalf("step %d: migration %v from a non-member of the old plan", step, m)
			}
		}
		cur = a
	}
}

// TestRebalanceRejectsWidthMismatch pins the cross-plan guard.
func TestRebalanceRejectsWidthMismatch(t *testing.T) {
	a, _ := RoundRobin(4, 4, []int{0})
	b, _ := RoundRobin(5, 5, []int{0})
	if _, err := Rebalance(a, b); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

// TestMigrationOrdering pins the deterministic order: blocks ascending, then
// groups ascending.
func TestMigrationOrdering(t *testing.T) {
	plan, err := RoundRobin(6, 6, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	next, err := Next(plan, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	migs, err := Rebalance(plan, next)
	if err != nil {
		t.Fatal(err)
	}
	lastBlock := -1
	seenGroup := false
	for _, m := range migs {
		switch m.Kind {
		case MigrateBlock:
			if seenGroup {
				t.Fatalf("block migration after group migration: %v", migs)
			}
			if m.ID <= lastBlock {
				t.Fatalf("block migrations not ascending: %v", migs)
			}
			lastBlock = m.ID
		case MigrateGroup:
			seenGroup = true
		}
	}
	if !seenGroup || lastBlock < 0 {
		t.Fatalf("expected both kinds in %v", migs)
	}
}

// TestValidateCatchesCorruption exercises the structural checks.
func TestValidateCatchesCorruption(t *testing.T) {
	plan, err := RoundRobin(4, 4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := *plan
	bad.BlockOwner = append([]int{}, plan.BlockOwner...)
	bad.BlockOwner[2] = 99
	if err := bad.Validate(); err == nil {
		t.Fatal("foreign owner accepted")
	}
	short := *plan
	short.GroupOwner = plan.GroupOwner[:2]
	if err := short.Validate(); err == nil {
		t.Fatal("short owner table accepted")
	}
}

func TestMigrationKindString(t *testing.T) {
	if MigrateBlock.String() != "block" || MigrateGroup.String() != "group" {
		t.Fatal("kind strings changed")
	}
	if MigrationKind(9).String() == "" {
		t.Fatal("unknown kind must stringify")
	}
}
