// Live membership for the virtual machine: seeded join/leave schedules and
// the admission primitives that bring dormant ranks into a running Machine.
//
// A machine is created over its full rank universe — every rank id that can
// ever participate — with Config.Members naming the initially active subset.
// Dormant ranks run their bodies like any other rank but immediately park in
// AwaitAdmission, costing nothing on the virtual clock until an active rank
// Admits them (delivering a state hand-off payload whose transfer is charged
// like any point-to-point message, so a joiner's clock starts at the
// admission's arrival time) or Releases them (run over, never needed). A
// rank that leaves gracefully simply parks again, so the same id can rejoin
// later in the run.
//
// MembershipPlan is the deterministic schedule format: a sorted event list
// of virtual-time-stamped join/leave batches over the universe, with seeded
// generators for the two production profiles (spot-instance churn and
// autoscaling ramps) and a canonical binary codec so schedules can be
// stored, diffed, and fuzzed like the other wire formats of the repo.
// Engines fire events at their own synchronization boundaries: an event
// with TimeSec t applies at the first boundary whose collectively agreed
// virtual time reaches t, which keeps the firing step a pure function of
// the virtual execution.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"pepscale/internal/wire"
)

// MemberEvent is one batch of membership changes, applied atomically at the
// first engine boundary whose agreed virtual time is ≥ TimeSec. Join and
// Leave are strictly ascending and disjoint.
type MemberEvent struct {
	TimeSec float64
	Join    []int
	Leave   []int
}

// MembershipPlan is a deterministic join/leave schedule over a fixed rank
// universe. Ranks [0, Initial) are active at time 0; Events apply in order.
type MembershipPlan struct {
	// Universe is the machine size: every rank id ever used lies in
	// [0, Universe).
	Universe int
	// Initial is the initially active rank count (ranks 0..Initial-1).
	Initial int
	// Events is the schedule, ascending by TimeSec.
	Events []MemberEvent
}

// InitialMembers returns the ascending initially active rank ids.
func (mp *MembershipPlan) InitialMembers() []int {
	out := make([]int, mp.Initial)
	for i := range out {
		out[i] = i
	}
	return out
}

// Validate simulates the schedule and reports the first inconsistency:
// out-of-range or duplicate ids, joins of active ranks, leaves of inactive
// ranks, a step that empties the membership, non-monotonic times, or
// non-canonical (unsorted) event lists.
func (mp *MembershipPlan) Validate() error {
	if mp == nil {
		return nil
	}
	if mp.Universe < 1 {
		return fmt.Errorf("cluster: MembershipPlan.Universe %d < 1", mp.Universe)
	}
	if mp.Initial < 1 || mp.Initial > mp.Universe {
		return fmt.Errorf("cluster: MembershipPlan.Initial %d outside [1,%d]", mp.Initial, mp.Universe)
	}
	active := make([]bool, mp.Universe)
	n := mp.Initial
	for i := 0; i < mp.Initial; i++ {
		active[i] = true
	}
	prev := 0.0
	for ei, ev := range mp.Events {
		if math.IsNaN(ev.TimeSec) || math.IsInf(ev.TimeSec, 0) || ev.TimeSec < 0 {
			return fmt.Errorf("cluster: event %d: invalid time %v", ei, ev.TimeSec)
		}
		if ev.TimeSec < prev {
			return fmt.Errorf("cluster: event %d: time %v before predecessor %v", ei, ev.TimeSec, prev)
		}
		prev = ev.TimeSec
		if len(ev.Join) == 0 && len(ev.Leave) == 0 {
			return fmt.Errorf("cluster: event %d: empty", ei)
		}
		if !sort.IntsAreSorted(ev.Join) || !sort.IntsAreSorted(ev.Leave) {
			return fmt.Errorf("cluster: event %d: join/leave lists must be ascending", ei)
		}
		for _, r := range ev.Leave {
			if r < 0 || r >= mp.Universe {
				return fmt.Errorf("cluster: event %d: leave rank %d outside [0,%d)", ei, r, mp.Universe)
			}
			if !active[r] {
				return fmt.Errorf("cluster: event %d: leave of inactive rank %d", ei, r)
			}
			active[r] = false
			n--
		}
		for i, r := range ev.Join {
			if r < 0 || r >= mp.Universe {
				return fmt.Errorf("cluster: event %d: join rank %d outside [0,%d)", ei, r, mp.Universe)
			}
			if i > 0 && r == ev.Join[i-1] {
				return fmt.Errorf("cluster: event %d: duplicate join rank %d", ei, r)
			}
			if active[r] {
				return fmt.Errorf("cluster: event %d: join of already-active rank %d", ei, r)
			}
			active[r] = true
			n++
		}
		if n < 1 {
			return fmt.Errorf("cluster: event %d: membership would become empty", ei)
		}
	}
	return nil
}

// Apply returns the ascending member list after the event — leaves before
// joins and never empty, the order Validate simulates — leaving members
// untouched. It is tolerant where Validate is strict, so a schedule a driver
// filtered after a crash can never corrupt the set: a leave of a non-member
// or of the last member, a join of a member and a join of a rank in dead
// (nil when the caller tracks none) are skipped.
func (ev MemberEvent) Apply(members []int, dead map[int]bool) []int {
	out := slices.Clone(members)
	for _, l := range ev.Leave {
		if len(out) <= 1 {
			break
		}
		if i, ok := slices.BinarySearch(out, l); ok {
			out = slices.Delete(out, i, i+1)
		}
	}
	for _, j := range ev.Join {
		if dead[j] {
			continue
		}
		if i, ok := slices.BinarySearch(out, j); !ok {
			out = slices.Insert(out, i, j)
		}
	}
	return out
}

// SpotMembershipPlan generates the spot-instance churn profile: `cycles`
// preemption events spread over [0, horizonSec), each replacing one random
// active rank with one random dormant rank (the preempted instance's
// capacity comes back as a fresh node; preempted ids may themselves return
// in later cycles). The schedule is a pure function of the arguments.
func SpotMembershipPlan(p0, spares, cycles int, horizonSec float64, seed int64) *MembershipPlan {
	mp := &MembershipPlan{Universe: p0 + spares, Initial: p0}
	rng := rand.New(rand.NewSource(seed*7654321 + 13))
	active := make([]int, p0)
	for i := range active {
		active[i] = i
	}
	dormant := make([]int, spares)
	for i := range dormant {
		dormant[i] = p0 + i
	}
	times := make([]float64, cycles)
	for i := range times {
		times[i] = horizonSec * rng.Float64()
	}
	sort.Float64s(times)
	for _, t := range times {
		ev := MemberEvent{TimeSec: t}
		if len(active) > 1 {
			i := rng.Intn(len(active))
			ev.Leave = []int{active[i]}
			active = append(active[:i], active[i+1:]...)
		}
		if len(dormant) > 0 {
			j := rng.Intn(len(dormant))
			ev.Join = []int{dormant[j]}
			dormant = append(dormant[:j], dormant[j+1:]...)
		}
		if len(ev.Join) == 0 && len(ev.Leave) == 0 {
			continue
		}
		// The joiner is preemptible from now on; the preempted id becomes
		// re-admittable spare capacity.
		active = append(active, ev.Join...)
		dormant = append(dormant, ev.Leave...)
		mp.Events = append(mp.Events, ev)
	}
	return mp
}

// AutoscaleMembershipPlan generates the autoscaling profile: the membership
// ramps from p0 up to p0+spares one join per event over the first half of
// [0, horizonSec), then drains back down to p0, last-joined first. The
// schedule is a pure function of the arguments.
func AutoscaleMembershipPlan(p0, spares int, horizonSec float64, seed int64) *MembershipPlan {
	mp := &MembershipPlan{Universe: p0 + spares, Initial: p0}
	rng := rand.New(rand.NewSource(seed*2718281 + 7))
	up := make([]float64, spares)
	down := make([]float64, spares)
	for i := range up {
		up[i] = horizonSec / 2 * rng.Float64()
		down[i] = horizonSec/2 + horizonSec/2*rng.Float64()
	}
	sort.Float64s(up)
	sort.Float64s(down)
	for i := 0; i < spares; i++ {
		mp.Events = append(mp.Events, MemberEvent{TimeSec: up[i], Join: []int{p0 + i}})
	}
	for i := 0; i < spares; i++ {
		// Drain in reverse join order so every leave targets an active rank.
		mp.Events = append(mp.Events, MemberEvent{TimeSec: down[i], Leave: []int{p0 + spares - 1 - i}})
	}
	return mp
}

// Binary codec for membership schedules (PMBR; DESIGN.md, "Blob codec").
const (
	membershipMagic   = uint32(0x504d4252) // "RBMP" little-endian on the wire
	membershipVersion = uint16(1)
)

// errMembership reports a schedule blob that fails structural or semantic
// validation.
var errMembership = errors.New("cluster: bad membership blob")

const (
	// maxUniverse bounds the universe a blob may declare: Validate simulates
	// the schedule over a table of that many ranks.
	maxUniverse = 1 << 24
	// eventWireMin is the encoded size of an event with empty rank lists.
	eventWireMin = 8 + 4 + 4
)

// EncodeMembershipPlan serializes the plan into the canonical little-endian
// binary form.
func EncodeMembershipPlan(mp *MembershipPlan) []byte {
	size := 4 + 2 + 4 + 4 + 4
	for _, ev := range mp.Events {
		size += eventWireMin + 4*len(ev.Join) + 4*len(ev.Leave)
	}
	out := make([]byte, 0, size)
	out = wire.U32(out, membershipMagic)
	out = wire.U16(out, membershipVersion)
	out = wire.U32(out, uint32(mp.Universe))
	out = wire.U32(out, uint32(mp.Initial))
	out = wire.U32(out, uint32(len(mp.Events)))
	for _, ev := range mp.Events {
		out = wire.F64(out, ev.TimeSec)
		out = wire.Ints(out, ev.Join)
		out = wire.Ints(out, ev.Leave)
	}
	return out
}

// DecodeMembershipPlan parses and validates a canonical schedule blob,
// rejecting truncated, oversized, trailing-garbage, and semantically
// invalid inputs.
func DecodeMembershipPlan(data []byte) (*MembershipPlan, error) {
	r := wire.NewReader(data, errMembership)
	if r.U32() != membershipMagic {
		return nil, fmt.Errorf("%w: bad magic", errMembership)
	}
	if r.U16() != membershipVersion {
		return nil, fmt.Errorf("%w: unsupported version", errMembership)
	}
	mp := &MembershipPlan{Universe: int(r.U32()), Initial: int(r.U32())}
	if mp.Universe > maxUniverse {
		return nil, fmt.Errorf("%w: universe %d too large", errMembership, mp.Universe)
	}
	if n := r.Count(eventWireMin); n > 0 {
		mp.Events = make([]MemberEvent, n)
	}
	for i := range mp.Events {
		mp.Events[i] = MemberEvent{TimeSec: r.F64(), Join: r.Ints(), Leave: r.Ints()}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if err := mp.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", errMembership, err)
	}
	return mp, nil
}

// Admission tags are reserved message tags of the membership protocol.
const (
	admitTag   = "membership/admit"
	releaseTag = "membership/release"
)

// markActive flips rank id's membership bit, rejecting out-of-range ids and
// no-op transitions so admission can never index past the universe or
// double-admit.
func (m *Machine) markActive(id int, active bool) error {
	m.memberMu.Lock()
	defer m.memberMu.Unlock()
	return m.setActive(id, active)
}

// setActive is markActive with memberMu held. A rank going dormant forgets
// its admitter.
func (m *Machine) setActive(id int, active bool) error {
	if id < 0 || id >= m.cfg.Ranks {
		return fmt.Errorf("cluster: membership change for rank %d outside universe [0,%d)", id, m.cfg.Ranks)
	}
	if m.active[id] == active {
		return fmt.Errorf("cluster: rank %d already %s", id, map[bool]string{true: "active", false: "dormant"}[active])
	}
	m.active[id] = active
	if !active {
		m.admitter[id] = -1
	}
	if !m.ended(id) {
		if active {
			m.live++
		} else {
			m.live--
			m.wakeIdle()
		}
	}
	return nil
}

// admit activates dormant rank to on behalf of active rank by, names by its
// admitter and wakes its AwaitAdmission to wait on by alone.
func (m *Machine) admit(by, to int) error {
	m.memberMu.Lock()
	defer m.memberMu.Unlock()
	if !m.active[by] {
		return fmt.Errorf("cluster: dormant rank %d cannot admit rank %d", by, to)
	}
	if err := m.setActive(to, true); err != nil {
		return err
	}
	m.admitter[to] = by
	close(m.admitted[to])
	m.admitted[to] = make(chan struct{})
	return nil
}

// Admit activates the dormant ranks `to` and hands each payload as its
// admission state. Every one of them is active, with the caller as its
// admitter, before the first admission is sent, so a crash at any of the
// sends fails each joiner still waiting for its admission (see
// AwaitAdmission) instead of leaving it dormant in a round that counts it.
// Each transfer is charged like any Send, so a joiner's clock advances to
// its admission's arrival time. Admitting from a dormant rank, or admitting
// an active or out-of-universe rank, panics: it is a program error on par
// with sending to an invalid rank.
func (r *Rank) Admit(to []int, payload []byte) {
	for _, j := range to {
		if err := r.m.admit(r.id, j); err != nil {
			panic(err.Error())
		}
	}
	for _, j := range to {
		if r.tl != nil {
			r.Mark("admit", fmt.Sprintf("rank %d admitted by %d", j, r.id))
		}
		r.Send(j, admitTag, payload)
	}
}

// Depart marks the calling rank dormant again (a graceful leave). The
// rank's body should then park in AwaitAdmission to stay re-admittable, or
// return. After LeaveBarrier only the trace mark is left to do.
func (r *Rank) Depart() {
	if r.leaving {
		r.leaving = false
	} else if err := r.m.markActive(r.id, false); err != nil {
		panic(err.Error())
	}
	if r.tl != nil {
		r.Mark("depart", fmt.Sprintf("rank %d left the membership", r.id))
	}
}

// LeaveBarrier is Barrier for a caller that leaves the membership at it and
// may be re-admitted by a member straight after: the caller's membership bit
// flips before it enters, so the barrier's completion orders the flip before
// anything a member does once its own Barrier returns. Flipping it in a later
// Depart would leave that to the host scheduler — an Admit of this rank at
// the next boundary could find it still active. The caller finishes the
// leave with Depart, which then only traces the mark.
func (c *Comm) LeaveBarrier() {
	if err := c.r.m.markActive(c.r.id, false); err != nil {
		panic(err.Error())
	}
	c.r.leaving = true
	c.Barrier()
}

// Release frees a dormant rank that will never be admitted: its
// AwaitAdmission returns ok=false and its body can finish.
func (r *Rank) Release(to int) {
	r.Send(to, releaseTag, nil)
}

// AwaitAdmission parks a dormant rank until an active rank Admits it
// (returning its hand-off payload and ok=true) or Releases it (ok=false).
// The wait itself is free on the virtual clock — a dormant rank models
// capacity that is not yet part of the job — but the delivered admission
// message is charged normally. Any other message arriving while dormant is
// a protocol error and panics. Once admitted, it depends on its admitter
// alone: it fails if the admitter ends without sending the admission. Until
// then, like RecvAny, it fails once no other active rank is left running,
// so two dormant ranks never wait on each other.
func (r *Rank) AwaitAdmission() (payload []byte, ok bool) {
	r.faultPoint()
	from, tag, payload := r.recvAny("AwaitAdmission", true)
	switch tag {
	case admitTag:
		return payload, true
	case releaseTag:
		return nil, false
	default:
		panic(fmt.Sprintf("cluster: dormant rank %d received %q from rank %d", r.id, tag, from))
	}
}

// Group returns a communicator over the given active global rank ids, which
// must include the caller. Like Split, it is a collective: every listed
// member must call Group with an identical membership before any member's
// first collective on it completes. Identical memberships share one
// rendezvous (the registry is keyed by the sorted member list), so repeated
// Group calls across epochs are cheap and deterministic; Reset clears the
// registry along with the rest of the collective state.
func (r *Rank) Group(members []int) *Comm {
	ms := make([]int, len(members))
	copy(ms, members)
	sort.Ints(ms)
	for i, id := range ms {
		if id < 0 || id >= r.m.cfg.Ranks {
			panic(fmt.Sprintf("cluster: Group member %d outside universe [0,%d)", id, r.m.cfg.Ranks))
		}
		if i > 0 && id == ms[i-1] {
			panic(fmt.Sprintf("cluster: Group member %d duplicated", id))
		}
	}
	key := fmt.Sprint(ms)
	m := r.m
	m.memberMu.Lock()
	sh, ok := m.groups[key]
	if !ok {
		sh = &commShared{ranks: ms, ph: m.addPhaser(ms, "group"+key), lv: m.cfg.Cost.levelsFor(ms)}
		m.groups[key] = sh
	}
	m.memberMu.Unlock()
	myIdx := -1
	for i, id := range sh.ranks {
		if id == r.id {
			myIdx = i
			break
		}
	}
	if myIdx < 0 {
		panic(fmt.Sprintf("cluster: rank %d building a Group it is not a member of", r.id))
	}
	return &Comm{r: r, shared: sh, myIdx: myIdx}
}
