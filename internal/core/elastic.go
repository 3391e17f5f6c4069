// The elastic engine: the checkpointed group sweep (sweep.go) over a LIVE
// membership — ranks join and leave a running machine at scheduled virtual
// times, with ownership rebalanced through the placement layer and the
// final hits bit-identical to a static run.
//
// The job keeps the sweep's stable logical structure: the database is
// partitioned once into p0 record-aligned blocks and the queries into p0
// groups, p0 = MembershipPlan.Initial. A placement.Plan maps both onto the
// current membership; the initial plan is the historical round-robin
// partition, and every membership change advances it with placement.Next,
// which moves only the minimal orphaned-or-over-quota set.
//
// The scan is step-major: at global step s every owned group g offers block
// (g+s) mod p0, so all groups share one cursor and the per-group offer
// order is exactly the static schedule. Every EpochSteps steps the engine
// reaches an epoch boundary:
//
//  1. every member checkpoints its owned groups (cursor = s);
//  2. the members agree on the boundary's virtual time with an OpMax
//     allreduce over timeBase + local clock — the agreed time, not any
//     local clock, decides which membership events fire, so the firing
//     step is a pure function of the virtual execution;
//  3. fired events produce the new member set; every rank recomputes the
//     incremental plan locally (placement is deterministic, so no
//     coordinator state exists);
//  4. the lowest old member admits each joiner, handing it the boundary
//     state (step, event cursor, protein-index bases, window generations,
//     and the pre-change plan) as a charged point-to-point payload;
//  5. migrations execute: a block's new owner fetches the raw window from
//     the old owner under the "migrate" phase (topology-aware RMA, counted
//     as MigrationBytes) and re-exposes it under a bumped generation name;
//     a group's new owner restores the boundary checkpoint from the stable
//     store; then old and new members synchronize on their union and
//     leavers park back in AwaitAdmission, re-admittable at later events.
//
// Bit-identity with the static run holds because a top-τ list is a pure
// function of its offer multiset, each group's offers stay s-ascending
// across any join/leave history (checkpoints reflect exactly the pre-cursor
// blocks), and the group→block schedule never depends on placement. A crash
// aborts the attempt and recoverLoop (recover.go) replays the membership
// schedule without the dead ranks on a fresh machine, resuming from the
// checkpoint store. With no Membership the roster is static — cfg.Ranks
// members, no events — and the engine is the checkpointed crash restart of
// Algorithm A's schedule: the survivors re-partition the p0 blocks and groups
// round-robin, and resident memory stays O(N/p′).
package core

import (
	"fmt"
	"slices"

	"pepscale/internal/ckpt"
	"pepscale/internal/cluster"
	"pepscale/internal/placement"
	"pepscale/internal/wire"
)

// ElasticOptions configures the elastic driver.
type ElasticOptions struct {
	// Membership is the join/leave schedule. Nil runs a static membership
	// over cfg.Ranks (Universe = Initial = cfg.Ranks, no events): Algorithm
	// A's schedule, checkpointed at every boundary and restarted on the
	// survivors after a crash.
	Membership *cluster.MembershipPlan
	// EpochSteps is the number of scan steps between epoch boundaries
	// (default 1: events can fire before every step).
	EpochSteps int
	// MaxAttempts bounds driver re-runs after crashes (default: the
	// universe size).
	MaxAttempts int
	// Faults[a] is the fault schedule injected into attempt a.
	Faults []*cluster.FaultPlan
}

// elasticSchedule is one attempt's immutable replay input.
type elasticSchedule struct {
	p0       int
	epoch    int
	initial  []int
	events   []cluster.MemberEvent
	timeBase float64
}

// RunElastic executes the membership-elastic search. The returned metrics
// describe the successful attempt (RunSec accumulating failed attempts'
// virtual time); Recovery details every attempt and the checkpoint traffic.
func RunElastic(cfg cluster.Config, in Input, opt Options, eopt ElasticOptions) (*Result, *Recovery, error) {
	return runElastic(cfg, in, opt, eopt, newIndexCache())
}

// runElastic is RunElastic on the caller's host-side cache, shared by every
// attempt and every membership epoch.
func runElastic(cfg cluster.Config, in Input, opt Options, eopt ElasticOptions, cache *indexCache) (*Result, *Recovery, error) {
	if err := in.validate(opt); err != nil {
		return nil, nil, err
	}
	mp := eopt.Membership
	if mp == nil {
		if cfg.Ranks < 1 {
			return nil, nil, fmt.Errorf("core: need at least 1 rank, got %d", cfg.Ranks)
		}
		mp = &cluster.MembershipPlan{Universe: cfg.Ranks, Initial: cfg.Ranks}
	}
	if err := mp.Validate(); err != nil {
		return nil, nil, err
	}
	epoch := eopt.EpochSteps
	if epoch < 1 {
		epoch = 1
	}
	store := ckpt.NewStore()
	return recoverLoop("elastic", mp.Universe, eopt.MaxAttempts, eopt.Faults, store, func(failed []int, timeBase float64) (*attemptPlan, error) {
		dead := make(map[int]bool, len(failed))
		for _, f := range failed {
			dead[f] = true
		}
		initial := slices.DeleteFunc(mp.InitialMembers(), func(id int) bool { return dead[id] })
		// The whole starting roster died across attempts: restart on the
		// lowest surviving universe rank (placement is indifferent).
		for id := 0; len(initial) == 0 && id < mp.Universe; id++ {
			if !dead[id] {
				initial = []int{id}
			}
		}
		if len(initial) == 0 {
			return nil, fmt.Errorf("core: all %d ranks failed", mp.Universe)
		}
		es := &elasticSchedule{p0: mp.Initial, epoch: epoch, initial: initial,
			events: filterEvents(mp.Events, dead), timeBase: timeBase}
		c := cfg
		c.Ranks = mp.Universe
		c.Members = initial
		sh := newShared(mp.Universe, cache)
		return &attemptPlan{cfg: c, ranks: len(initial), label: fmt.Sprintf("elastic p0=%d", len(initial)), sh: sh,
			body: func(r *cluster.Rank) error { return elasticBody(r, in, opt, es, store, sh) }}, nil
	})
}

// filterEvents removes dead ranks from a schedule, dropping events it
// empties: a rank that crashed is neither preemptible nor re-admittable.
func filterEvents(events []cluster.MemberEvent, dead map[int]bool) []cluster.MemberEvent {
	out := make([]cluster.MemberEvent, 0, len(events))
	for _, ev := range events {
		f := cluster.MemberEvent{TimeSec: ev.TimeSec}
		for _, j := range ev.Join {
			if !dead[j] {
				f.Join = append(f.Join, j)
			}
		}
		for _, l := range ev.Leave {
			if !dead[l] {
				f.Leave = append(f.Leave, l)
			}
		}
		if len(f.Join) > 0 || len(f.Leave) > 0 {
			out = append(out, f)
		}
	}
	return out
}

// elasticState is one rank's live view of the elastic run: its sweeper plus
// the step and event cursors. Every field is recomputed deterministically
// from the schedule (or received once in the admission payload), so all
// members always agree on plan, generations, and event cursor without
// exchanging any further coordination state.
type elasticState struct {
	*sweeper
	scr      placement.Scratch
	eventIdx int
	s        int // next scan step
	nextB    int // next epoch-boundary step
	loadT    float64
}

// elasticBody is one rank's program for one attempt: initially-active ranks
// run the search from step 0; dormant ranks park until admitted (possibly
// repeatedly — a graceful leaver parks again) or released.
func elasticBody(r *cluster.Rank, in Input, opt Options, es *elasticSchedule, store *ckpt.Store, sh *shared) error {
	_, active := slices.BinarySearch(es.initial, r.ID())
	for {
		var st *elasticState
		var err error
		if active {
			st, err = elasticStart(r, in, opt, es, store, sh)
		} else {
			payload, ok := r.AwaitAdmission()
			if !ok {
				return nil
			}
			st, err = elasticJoin(r, in, opt, es, store, sh, payload)
		}
		if err != nil {
			return err
		}
		departed, err := elasticMain(r, in, es, sh, st)
		if err != nil {
			return err
		}
		if !departed {
			return nil
		}
		active = false
	}
}

// elasticStart boots an initially-active rank: load and expose the owned
// blocks of the round-robin plan, agree on protein-index bases over the
// initial membership's communicator, and build/restore the owned groups.
func elasticStart(r *cluster.Rank, in Input, opt Options, es *elasticSchedule, store *ckpt.Store, sh *shared) (*elasticState, error) {
	t0 := r.Time()
	r.SetPhase("load")
	plan, err := placement.RoundRobin(es.p0, es.p0, es.initial)
	if err != nil {
		return nil, err
	}
	sn, err := newScanner(opt, sh.cache)
	if err != nil {
		return nil, err
	}
	sw := newSweeper(r, sn, in.DBData, opt, store, "group", plan, make([]int32, es.p0))
	st := &elasticState{sweeper: sw, nextB: es.epoch}
	if err := sw.loadOwned(); err != nil {
		return nil, err
	}
	// Protein-index bases over the initial membership only — the world
	// communicator is off-limits: dormant ranks are parked and must never
	// be awaited.
	comm := r.Group(es.initial)
	if err := sw.agreeBases(comm); err != nil {
		return nil, err
	}
	for _, g := range plan.GroupsOf(r.ID()) {
		if err := sw.loadShare(in.Queries, g); err != nil {
			return nil, err
		}
	}
	comm.Barrier() // all initial windows exposed
	st.loadT = r.Time() - t0
	return st, nil
}

// elasticMain runs the step-major scan from st.s, handling epoch boundaries
// (checkpoint, agreed-time event firing, admissions, migrations) until the
// sweep completes or this rank leaves the membership. It returns
// departed=true when the rank left gracefully and should park again.
func elasticMain(r *cluster.Rank, in Input, es *elasticSchedule, sh *shared, st *elasticState) (bool, error) {
	r.SetPhase("scan")
	for st.s < es.p0 {
		if st.s == st.nextB {
			st.nextB += es.epoch
			departed, err := elasticBoundary(r, in, es, sh, st)
			if err != nil {
				return false, err
			}
			if departed {
				return true, nil
			}
		}
		// One walk per epoch, so no get crosses a boundary. Tag the epoch's
		// last step on every member, not only inside the walk: a member that
		// drives no group still reaches the next boundary, and its events
		// there carry this step.
		end := min(st.nextB, es.p0)
		groups := slices.DeleteFunc(st.sortedGroups(), func(gr *rgroup) bool { return len(gr.qs) == 0 })
		if err := st.walk(groups, st.s, end); err != nil {
			return false, err
		}
		r.SetStep(end - 1)
		st.s = end
	}

	// Report over the final membership; the lowest member merges and then
	// releases every parked rank so the machine can complete.
	comm := r.Group(st.plan.Members)
	if err := st.report(comm, len(in.Queries), st.loadT, sh); err != nil {
		return false, err
	}
	if comm.Index() == 0 {
		for rank := 0; rank < r.Size(); rank++ {
			if !st.plan.IsMember(rank) {
				r.Release(rank)
			}
		}
	}
	return false, nil
}

// elasticBoundary handles one epoch boundary on an active member.
func elasticBoundary(r *cluster.Rank, in Input, es *elasticSchedule, sh *shared, st *elasticState) (bool, error) {
	// 1. Checkpoint every owned group at the shared cursor, so any group
	// that migrates (or any crash) resumes exactly here.
	for _, gr := range st.sortedGroups() {
		st.checkpoint(gr)
	}
	// 2. Agree on the boundary's virtual time; fire every event it reaches.
	comm := r.Group(st.plan.Members)
	told := comm.AllreduceFloat64(cluster.OpMax, es.timeBase+r.Time())
	newMembers := st.plan.Members
	for st.eventIdx < len(es.events) && es.events[st.eventIdx].TimeSec <= told {
		newMembers = es.events[st.eventIdx].Apply(newMembers, nil)
		st.eventIdx++
	}
	if slices.Equal(newMembers, st.plan.Members) {
		return false, nil
	}
	r.SetPhase("migrate")
	// 3-4. The lowest current member admits each joiner, handing it the
	// boundary state it cannot otherwise reconstruct.
	if joiners := diffSorted(newMembers, st.plan.Members); len(joiners) > 0 && st.plan.Members[0] == r.ID() {
		r.Admit(joiners, encodeAdmission(st, newMembers, es.p0))
	}
	return elasticApply(r, in, sh, st, newMembers)
}

// elasticApply runs the post-agreement tail of a boundary — plan advance,
// migrations, union synchronization, departure — identically on continuing
// members and joiners.
func elasticApply(r *cluster.Rank, in Input, sh *shared, st *elasticState, newMembers []int) (bool, error) {
	id := r.ID()
	r.SetPhase("migrate")
	next, err := st.scr.Next(st.plan, newMembers)
	if err != nil {
		return false, err
	}
	migs, err := placement.Rebalance(st.plan, next)
	if err != nil {
		return false, err
	}
	for _, mg := range migs {
		switch mg.Kind {
		case placement.MigrateBlock:
			// Every rank bumps the generation; the source window is named
			// with the generation before the bump.
			oldName := blockWinName(mg.ID, st.gen[mg.ID])
			st.gen[mg.ID]++
			if mg.To == id {
				n, err := st.fetchMigrated(mg.ID, mg.From, oldName)
				if err != nil {
					return false, err
				}
				sh.migBytes[id] += n
			} else if mg.From == id {
				r.NoteFree(int64(len(st.block(mg.ID))))
			}
		case placement.MigrateGroup:
			if mg.To == id {
				if err := st.loadShare(in.Queries, mg.ID); err != nil {
					return false, err
				}
			} else if mg.From == id {
				delete(st.groups, mg.ID)
			}
		}
	}
	// Old and new members synchronize on their union: every migration
	// source stays responsive until every fetch of this boundary is done,
	// and no joiner can race ahead of the membership it joined. A leaver's
	// membership bit flips on its way in, so the lowest member's Admit at
	// the next boundary finds it dormant whichever of the two the host runs
	// first.
	union := r.Group(unionSorted(st.plan.Members, newMembers))
	leaving := !next.IsMember(id)
	if leaving {
		union.LeaveBarrier()
	} else {
		union.Barrier()
	}
	st.plan = next
	r.SetPhase("scan")
	if leaving {
		r.Depart()
	}
	return leaving, nil
}

// elasticJoin boots a rank admitted at an epoch boundary from the admission
// payload, then runs the same boundary tail as the continuing members.
func elasticJoin(r *cluster.Rank, in Input, opt Options, es *elasticSchedule, store *ckpt.Store, sh *shared, payload []byte) (*elasticState, error) {
	t0 := r.Time()
	ad, err := decodeAdmission(payload, es.p0)
	if err != nil {
		return nil, fmt.Errorf("rank %d: admission payload: %w", r.ID(), err)
	}
	prev := &placement.Plan{Blocks: es.p0, Groups: es.p0, Members: ad.oldMembers,
		BlockOwner: ad.blockOwner, GroupOwner: ad.groupOwner}
	sn, err := newScanner(opt, sh.cache)
	if err != nil {
		return nil, err
	}
	sw := newSweeper(r, sn, in.DBData, opt, store, "group", prev, ad.gen)
	sw.bases = ad.bases
	st := &elasticState{sweeper: sw, eventIdx: ad.eventIdx, s: ad.step, nextB: ad.step + es.epoch}
	departed, err := elasticApply(r, in, sh, st, ad.newMembers)
	if err != nil {
		return nil, err
	}
	if departed {
		return nil, fmt.Errorf("rank %d: departed at its own admission boundary", r.ID())
	}
	st.loadT = r.Time() - t0
	return st, nil
}

// admission is the decoded boundary hand-off for a joiner.
type admission struct {
	step       int
	eventIdx   int
	oldMembers []int
	newMembers []int
	bases      []int32
	gen        []int32
	blockOwner []int
	groupOwner []int
}

// encodeAdmission serializes the boundary state a joiner needs: the step
// and event cursors, the pre-change membership and plan (from which the
// joiner recomputes the new plan exactly like everyone else), the agreed
// new membership, the protein-index bases, and the window generations.
func encodeAdmission(st *elasticState, newMembers []int, p0 int) []byte {
	out := make([]byte, 0, 16+4*(len(st.plan.Members)+len(newMembers)+4*p0))
	out = wire.U32(out, uint32(st.s))
	out = wire.U32(out, uint32(st.eventIdx))
	out = wire.Ints(out, st.plan.Members)
	out = wire.Ints(out, newMembers)
	for _, v := range st.bases {
		out = wire.U32(out, uint32(v))
	}
	for _, v := range st.gen {
		out = wire.U32(out, uint32(v))
	}
	out = wire.Ints(out, st.plan.BlockOwner)
	out = wire.Ints(out, st.plan.GroupOwner)
	return out
}

// decodeAdmission parses an admission payload (trusted intra-run data; the
// checks below catch engine bugs, not adversarial input).
func decodeAdmission(data []byte, p0 int) (*admission, error) {
	cur := wire.NewReader(data, errWire)
	ad := &admission{}
	ad.step = int(cur.U32())
	ad.eventIdx = int(cur.U32())
	ad.oldMembers = cur.Ints()
	ad.newMembers = cur.Ints()
	ad.bases = make([]int32, p0)
	for i := range ad.bases {
		ad.bases[i] = int32(cur.U32())
	}
	ad.gen = make([]int32, p0)
	for i := range ad.gen {
		ad.gen[i] = int32(cur.U32())
	}
	ad.blockOwner = cur.Ints()
	ad.groupOwner = cur.Ints()
	if err := cur.Finish(); err != nil {
		return nil, err
	}
	if len(ad.blockOwner) != p0 || len(ad.groupOwner) != p0 {
		return nil, fmt.Errorf("%w: admission owner tables sized %d/%d, want %d", errWire, len(ad.blockOwner), len(ad.groupOwner), p0)
	}
	return ad, nil
}

// diffSorted returns the elements of a not present in b (both ascending).
func diffSorted(a, b []int) []int {
	var out []int
	for _, v := range a {
		if _, ok := slices.BinarySearch(b, v); !ok {
			out = append(out, v)
		}
	}
	return out
}

// unionSorted merges two ascending lists.
func unionSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
