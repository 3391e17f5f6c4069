// Package cluster provides a virtual distributed-memory machine: the
// substrate that stands in for the paper's MPI cluster. Each rank runs as a
// goroutine with private memory; ranks interact only through the machine's
// primitives — point-to-point messages, tree collectives (Barrier,
// Allreduce, Gather, Allgather), a personalized all-to-all (Alltoallv), and
// one-sided RMA windows (Expose / Get / Wait) with the non-blocking,
// target-passive semantics of MPI_Get over RDMA.
//
// Alongside the data the primitives hand over (a get returns the owner's
// window itself, read-only), every rank carries a deterministic virtual
// clock driven by a LogGP-style CostModel: computation is charged with
// Compute, messages cost λ + bytes·μ (with NIC sharing), collectives cost
// ⌈log₂p⌉ rounds, and a Wait on a one-sided get advances the clock only by
// the transfer time not already hidden behind computation — which is
// exactly the paper's communication–computation masking, and lets the
// library reproduce the paper's timing experiments deterministically on a
// single host.
package cluster

import (
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"

	"pepscale/internal/trace"
)

// Config configures a virtual machine.
type Config struct {
	// Ranks is p, the number of processors.
	Ranks int
	// Cost is the network/compute cost model (zero value: free network).
	Cost CostModel
	// Members optionally names the initially active subset of the rank
	// universe (ascending global ids; nil means all ranks are active).
	// Dormant ranks park in AwaitAdmission until an active rank Admits or
	// Releases them — the substrate of the elastic engines, whose machines
	// span every rank that could ever join (see membership.go).
	Members []int
	// Fault is an optional deterministic fault schedule (nil: failure-free).
	Fault *FaultPlan
	// Trace enables per-rank event tracing on the virtual clock (see
	// Machine.Trace and internal/trace). Disabled tracing allocates nothing.
	Trace bool
}

// Machine is a virtual distributed-memory machine. Create with New, run a
// rank program with Run, then inspect per-rank Stats and virtual times.
type Machine struct {
	cfg   Config
	ranks []*Rank

	// inbox[i] holds the point-to-point messages sent to rank i.
	inbox []inbox

	// wins[owner] holds the RMA windows rank owner has exposed. One table
	// per owner, each behind its own lock, so two host threads meet only when
	// they read from the same owner at the same instant.
	wins []winTable

	coll  *phaser
	world *commShared

	// Membership and rank ends behind memberMu. active says which ranks of
	// the universe are currently members: sized to the universe at
	// construction and only ever flipped through markActive's bounds checks,
	// so admission can never index past the per-rank arrays. live counts the
	// active ranks whose body has not returned this Run; idle is closed and
	// replaced whenever live drops to one or none, the only moments a RecvAny
	// can lose its last possible sender. admitter[i] is the rank whose Admit
	// made rank i active this Run (-1: none since it was last dormant), and
	// admitted[i] is closed and replaced when it is named. A Split takes
	// memberMu inside its parent's phaser lock, so nothing holding memberMu
	// takes a phaser lock.
	memberMu sync.Mutex
	active   []bool
	live     int
	idle     chan struct{}
	admitter []int
	admitted []chan struct{}
	// ends[i] is closed once rank i's body has returned this Run, after
	// endCause[i] records how it ended (see cause). A primitive parked on
	// rank i selects on it.
	ends     []chan struct{}
	endCause []cause
	// groups memoizes sub-communicators built by Rank.Group, keyed by the
	// sorted member list so every member of one epoch shares a single
	// rendezvous; phasers lists every rendezvous a rank's end must reach
	// (the world's, every group's and every split's).
	groups  map[string]*commShared
	phasers []*phaser

	fault *faultState

	// rec collects per-rank trace events when Config.Trace is set.
	rec *trace.Recorder

	// abort is closed only on FATAL failures (body errors, unexpected
	// panics): every parked primitive unwinds at once and the run is
	// unrecoverable. A recoverable rank failure never closes it: survivors
	// learn of it from the end of the rank they wait on.
	abortOnce sync.Once
	abort     chan struct{}

	// Failure bookkeeping behind failMu: every rank's own recoverable
	// failure (crash or exhausted transfer retries) with its virtual time,
	// and the first fatal error.
	failMu   sync.Mutex
	failures map[int]failure
	fatalErr error
	// lastErr is the last Run's error: a failed machine refuses to run
	// again until Reset.
	lastErr error

	// collWakes counts wake-ups of ranks parked in a collective round,
	// host-only: no clock, Stats or trace reads it.
	collWakes atomic.Int64
}

// winTable is one owner's windows by name. An RWMutex because lookups
// (every rank, every transport step) vastly outnumber exposures.
type winTable struct {
	mu sync.RWMutex
	m  map[string]*window
	// wake, when a rank waits for a window of this owner, is closed by the
	// owner's next exposure.
	wake chan struct{}
}

// window is one exposure: immutable once published. A re-exposure swaps in a
// new value under the table's lock, so a Wait that loaded the old one keeps
// reading the old epoch's data and time together.
type window struct {
	data       []byte
	exposeTime float64
	sum        uint64 // data's fingerprint at Expose, under checkWindows
}

// windowSeed keys the windows' fingerprints.
var windowSeed = maphash.MakeSeed()

// checkWritten fails the Run when owner's window name, w, was written after
// Expose; it checks only under checkWindows.
func (m *Machine) checkWritten(owner int, name string, w *window) bool {
	if !checkWindows || maphash.Bytes(windowSeed, w.data) == w.sum {
		return false
	}
	m.doAbort(fmt.Errorf("cluster: rank %d's window %q was written after Expose", owner, name))
	return true
}

// window returns owner's current exposure under name, or nil.
func (m *Machine) window(owner int, name string) *window {
	t := &m.wins[owner]
	t.mu.RLock()
	w := t.m[name]
	t.mu.RUnlock()
	return w
}

// windowOrWake returns owner's current exposure under name or, when there is
// none, a channel closed by the owner's next exposure.
func (m *Machine) windowOrWake(owner int, name string) (*window, <-chan struct{}) {
	t := &m.wins[owner]
	t.mu.Lock()
	defer t.mu.Unlock()
	if w := t.m[name]; w != nil {
		return w, nil
	}
	if t.wake == nil {
		t.wake = make(chan struct{})
	}
	return nil, t.wake
}

type message struct {
	from    int
	tag     string
	payload []byte
	arrival float64
}

// inbox is one rank's undelivered messages: a FIFO queue per sender, created
// by that sender's first Send, and a wake channel of capacity 1 that every
// Send signals and only the owning rank reads. A token can be stale, never
// lost: the owner reads the queues before it parks on wake.
type inbox struct {
	mu   sync.Mutex
	q    map[int][]message
	wake chan struct{}
}

// put appends msg to its sender's queue and wakes the owner.
func (in *inbox) put(msg message) {
	in.mu.Lock()
	if in.q == nil {
		in.q = make(map[int][]message)
	}
	in.q[msg.from] = append(in.q[msg.from], msg)
	in.mu.Unlock()
	select {
	case in.wake <- struct{}{}:
	default:
	}
}

// take removes and returns the oldest message from sender from, or the
// earliest-arriving head of any queue (ties to the lowest sender) when from
// is -1.
func (in *inbox) take(from int) (message, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if from < 0 {
		var head message
		//pepvet:allow determinism the least (arrival, sender) head is the same in any iteration order
		for f, q := range in.q {
			if h := q[0]; from < 0 || h.arrival < head.arrival || h.arrival == head.arrival && f < from {
				from, head = f, h
			}
		}
	}
	q := in.q[from]
	if len(q) == 0 {
		return message{}, false
	}
	if len(q) == 1 {
		delete(in.q, from)
	} else {
		in.q[from] = q[1:]
	}
	return q[0], true
}

// cause is how a rank's body ended: with the failure it crashed with or
// unwound from (failed: the rank and virtual time the failure started at),
// or on its own (rank is the rank itself; a completion or a fatal error).
// The least of several causes is the earliest failure by (time, rank); an
// end that is no failure comes after every failure, lowest rank first.
type cause struct {
	rank   int
	t      float64
	failed bool
}

func (c cause) before(d cause) bool {
	if c.failed != d.failed {
		return c.failed
	}
	if c.t != d.t {
		return c.t < d.t
	}
	return c.rank < d.rank
}

// failure is one rank's own recoverable failure.
type failure struct {
	err error
	t   float64
}

// New creates a machine with p ranks.
func New(cfg Config) (*Machine, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 rank, got %d", cfg.Ranks)
	}
	if err := cfg.Fault.Validate(cfg.Ranks); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		active:   make([]bool, cfg.Ranks),
		idle:     make(chan struct{}),
		admitter: make([]int, cfg.Ranks),
		admitted: make([]chan struct{}, cfg.Ranks),
		ends:     make([]chan struct{}, cfg.Ranks),
		endCause: make([]cause, cfg.Ranks),
	}
	for _, id := range cfg.Members {
		if id < 0 || id >= cfg.Ranks {
			return nil, fmt.Errorf("cluster: Config.Members rank %d outside [0,%d)", id, cfg.Ranks)
		}
		if m.active[id] {
			return nil, fmt.Errorf("cluster: Config.Members rank %d duplicated", id)
		}
		m.active[id] = true
	}
	if cfg.Trace {
		m.rec = trace.NewRecorder(cfg.Ranks)
	}
	m.ranks = make([]*Rank, cfg.Ranks)
	for i := 0; i < cfg.Ranks; i++ {
		m.admitted[i] = make(chan struct{})
		m.ranks[i] = &Rank{m: m, id: i}
		if m.rec != nil {
			m.ranks[i].tl = m.rec.Rank(i)
		}
	}
	m.Reset()
	return m, nil
}

// Ranks returns p.
func (m *Machine) Ranks() int { return m.cfg.Ranks }

// Cost returns the machine's cost model.
func (m *Machine) Cost() CostModel { return m.cfg.Cost }

// doAbort records a fatal (non-recoverable) failure and unblocks every
// primitive. Recoverable rank failures go through failRank instead.
func (m *Machine) doAbort(err error) {
	m.failMu.Lock()
	if m.fatalErr == nil {
		m.fatalErr = err
	}
	m.failMu.Unlock()
	m.abortOnce.Do(func() { close(m.abort) })
}

// failRank records rank's own recoverable failure at virtual time vtime.
// Nobody is woken: survivors learn of it when the rank's body ends.
func (m *Machine) failRank(rank int, err error, vtime float64) {
	m.failMu.Lock()
	if _, dup := m.failures[rank]; !dup {
		m.failures[rank] = failure{err: err, t: vtime}
	}
	m.failMu.Unlock()
}

// failureOf returns rank's own recoverable failure as a cause, if any.
func (m *Machine) failureOf(rank int) (cause, bool) {
	m.failMu.Lock()
	defer m.failMu.Unlock()
	f, ok := m.failures[rank]
	return cause{rank: rank, t: f.t, failed: true}, ok
}

// endRank records how rank id's body ended and only then signals it: to the
// primitives parked on the rank (ends), to RecvAny waiters when an active
// rank ends, and to every rendezvous the rank belongs to, from whose rounds
// it is gone.
func (m *Machine) endRank(id int, c cause) {
	m.memberMu.Lock()
	m.endCause[id] = c
	close(m.ends[id])
	if m.active[id] {
		m.live--
		m.wakeIdle()
	}
	phs := m.phasers
	m.memberMu.Unlock()
	for _, p := range phs {
		if _, ok := slices.BinarySearch(p.sorted, id); ok {
			p.leave(m, c)
		}
	}
}

// ended reports whether rank id's body has returned this Run.
func (m *Machine) ended(id int) bool {
	select {
	case <-m.ends[id]:
		return true
	default:
		return false
	}
}

// wakeIdle wakes the RecvAny waiters once at most one active rank is left
// running. Caller holds memberMu.
func (m *Machine) wakeIdle() {
	if m.live <= 1 {
		close(m.idle)
		m.idle = make(chan struct{})
	}
}

// detectSec returns the configured failure-detection timeout.
func (m *Machine) detectSec() float64 {
	if m.fault == nil {
		return 0
	}
	return m.fault.plan.DetectSec
}

type abortPanic struct{}

// chargeDetection advances the survivor's clock to the failure-detector
// firing time (failure time + detection timeout), accounted as
// synchronization wait.
func (r *Rank) chargeDetection(c cause) {
	det := c.t + r.m.detectSec()
	if det > r.clock {
		d := det - r.clock
		r.charge(det, trace.Event{Kind: trace.KindDetect, Name: "fault-detect", Peer: c.rank, Start: r.clock, Dur: d, Delta: trace.StatDelta{SyncWaitSec: d}})
	}
}

// interrupted unwinds the calling rank out of a parked primitive after a
// fatal abort (recovered by Run). Never returns.
func (r *Rank) interrupted() {
	panic(abortPanic{})
}

// observe is a parked primitive learning that the rank it waits on ended by
// failure c: a fatal abort takes precedence; otherwise the rank is charged
// the detection timeout.
func (r *Rank) observe(c cause) {
	select {
	case <-r.m.abort:
		r.interrupted()
	default:
	}
	r.chargeDetection(c)
}

// peerEnded fails a primitive whose dependency ended without providing what
// it waits for: c is the dependency's cause. A failure unwinds the rank as a
// survivor; an end that is no failure is a program error, fatal for the run,
// and what names the primitive and the peer for its message.
func (r *Rank) peerEnded(c cause, what string) {
	if c.failed {
		r.observe(c)
		panic(failPanic{c: c})
	}
	r.m.doAbort(fmt.Errorf("cluster: rank %d: %s: %w", r.id, what, ErrPeerFinished))
	r.interrupted()
}

// RunReport describes one Run's outcome per rank, distinguishing
// recoverable rank failures (crashes, exhausted transfer retries) from
// fatal aborts (body errors, unexpected panics).
type RunReport struct {
	// Err is the run's first fatal error or, without one, the failure of
	// the least (virtual time, rank); nil when every rank completed.
	Err error
	// Fatal marks a non-recoverable failure (rank body error or panic).
	Fatal bool
	// FailedRanks lists failed ranks in ascending order.
	FailedRanks []int
	// FailureTimeSec is the virtual time of the least failure (0 if none).
	FailureTimeSec float64
	// RankErrs maps each rank to its outcome; completed ranks are absent.
	// Survivors interrupted by a peer failure record ErrRankFailed.
	RankErrs map[int]error
}

// OK reports a fully successful run.
func (rep *RunReport) OK() bool { return rep.Err == nil }

// Recoverable reports whether the run failed only through rank failures —
// the machine state is consistent and a driver may retry on the survivors
// (after Reset).
func (rep *RunReport) Recoverable() bool {
	return rep.Err != nil && !rep.Fatal && len(rep.FailedRanks) > 0
}

// Run executes body once per rank, concurrently, and waits for all ranks to
// finish. The first error (or panic) aborts the whole machine and is
// returned; every other rank's blocked primitive unwinds cleanly.
//
// Run may be called repeatedly on the same machine; clocks and statistics
// accumulate across calls (use Reset to clear them). After a failed Run the
// machine must be Reset before it can run again.
func (m *Machine) Run(body func(r *Rank) error) error {
	return m.RunWithReport(body).Err
}

// RunWithReport is Run returning the full per-rank outcome.
func (m *Machine) RunWithReport(body func(r *Rank) error) *RunReport {
	if m.lastErr != nil {
		return &RunReport{
			Err:   fmt.Errorf("cluster: machine aborted by a previous run (call Reset): %w", m.lastErr),
			Fatal: true,
		}
	}
	p := m.cfg.Ranks
	m.live = 0
	for i := range m.ends {
		m.ends[i] = make(chan struct{})
		m.admitter[i] = -1
		if m.active[i] {
			m.live++
		}
	}
	for _, ph := range m.phasers {
		ph.gone = 0 // every member ended last Run
	}
	outcomes := make([]error, p)
	var wg sync.WaitGroup
	for _, r := range m.ranks {
		wg.Add(1)
		//pepvet:allow ranksafety Run is the ownership hand-off: each Rank is given to exactly one goroutine for the duration of the body
		go func(r *Rank) {
			defer wg.Done()
			var c cause
			outcomes[r.id], c = m.runBody(r, body)
			m.endRank(r.id, c)
		}(r)
	}
	wg.Wait()
	for owner := 0; checkWindows && owner < p; owner++ {
		names := make([]string, 0, len(m.wins[owner].m))
		//pepvet:allow determinism the names are sorted below
		for name := range m.wins[owner].m {
			names = append(names, name)
		}
		slices.Sort(names) // the first written window found is the one reported
		for _, name := range names {
			m.checkWritten(owner, name, m.wins[owner].m[name])
		}
	}
	rep := &RunReport{RankErrs: make(map[int]error, p)}
	m.failMu.Lock()
	for i := 0; i < p; i++ {
		if f, ok := m.failures[i]; ok {
			if len(rep.FailedRanks) == 0 || f.t < rep.FailureTimeSec {
				rep.Err, rep.FailureTimeSec = f.err, f.t
			}
			rep.FailedRanks = append(rep.FailedRanks, i)
		}
	}
	if m.fatalErr != nil {
		rep.Err, rep.Fatal = m.fatalErr, true
	}
	m.failMu.Unlock()
	for i, err := range outcomes {
		if err != nil {
			rep.RankErrs[i] = err
		}
	}
	m.lastErr = rep.Err
	return rep
}

// runBody runs one rank's body and classifies its end: the rank's outcome
// error and the cause it ended by.
func (m *Machine) runBody(r *Rank, body func(r *Rank) error) (out error, c cause) {
	c = cause{rank: r.id}
	defer func() {
		switch rec := recover().(type) {
		case nil:
		case abortPanic:
			m.failMu.Lock()
			out = m.fatalErr // unwound by a fatal abort
			m.failMu.Unlock()
		case failPanic:
			out, c = ErrRankFailed{Rank: rec.c.rank}, rec.c
		case crashPanic:
			out, c = rec.err, rec.c // own failure, already recorded
		default:
			out = fmt.Errorf("cluster: rank %d panicked: %v", r.id, rec)
			m.doAbort(out)
		}
	}()
	err := body(r)
	if err == nil {
		return nil, c
	}
	// A recoverable failure surfaced through the body's own error return:
	// the rank's own (recorded by failRank), or another's a Wait reported.
	if own, ok := m.failureOf(r.id); ok {
		return err, own
	}
	if rf := (ErrRankFailed{}); errors.As(err, &rf) {
		if c, ok := m.failureOf(rf.Rank); ok {
			return err, c
		}
	}
	wrapped := fmt.Errorf("cluster: rank %d: %w", r.id, err)
	m.doAbort(wrapped)
	return wrapped, c
}

// Rank returns rank i's handle (for post-run stats inspection).
func (m *Machine) Rank(i int) *Rank { return m.ranks[i] }

// MaxTime returns the parallel run-time: the maximum virtual clock across
// ranks.
func (m *Machine) MaxTime() float64 {
	var max float64
	for _, r := range m.ranks {
		if r.clock > max {
			max = r.clock
		}
	}
	return max
}

// Reset clears clocks, statistics, windows, undelivered messages, and
// failure state, leaving the machine ready for a fresh Run — including
// after an aborted one: the abort channel, collective rendezvous, and
// fault-plan PRNG streams are all recreated, so a Reset machine replays a
// fault schedule identically. It must not be called concurrently with Run.
func (m *Machine) Reset() {
	m.inbox = make([]inbox, m.cfg.Ranks)
	for i, r := range m.ranks {
		r.clock = 0
		r.Stats = Stats{}
		r.leaving = false
		m.inbox[i].wake = make(chan struct{}, 1)
	}
	m.wins = make([]winTable, m.cfg.Ranks)
	// A crashed run may have poisoned the collective rendezvous (a round
	// with permanently missing arrivals); rebuild it, the world
	// communicator that references it and the group registry.
	worldRanks := make([]int, m.cfg.Ranks)
	for i := range worldRanks {
		worldRanks[i] = i
	}
	m.coll = newPhaser(worldRanks, worldPhaserID)
	m.world = &commShared{ranks: worldRanks, ph: m.coll, lv: m.cfg.Cost.levelsFor(worldRanks)}
	m.groups = make(map[string]*commShared)
	m.phasers = []*phaser{m.coll}
	// Membership reverts to the configured initial set, so a Reset machine
	// replays an elastic schedule from its starting roster.
	for i := range m.active {
		m.active[i] = m.cfg.Members == nil
	}
	for _, id := range m.cfg.Members {
		m.active[id] = true
	}
	m.abortOnce = sync.Once{}
	m.abort = make(chan struct{})
	m.failures = make(map[int]failure)
	m.fatalErr, m.lastErr = nil, nil
	m.fault = newFaultState(m.cfg.Fault, m.cfg.Ranks)
	if m.rec != nil {
		m.rec.Reset()
	}
}

// Stats aggregates one rank's accounting: the counters every event's delta
// adds to (see trace.StatDelta for each one), plus two memory gauges the
// trace does not carry.
type Stats struct {
	trace.StatDelta
	// ResidentBytes is the rank's current tracked allocation;
	// MaxResidentBytes its high-water mark (the space-optimality check).
	ResidentBytes, MaxResidentBytes int64
}

// Rank is one virtual processor. All methods must be called only from the
// goroutine running this rank's body.
//
//pepvet:perrank
type Rank struct {
	m     *Machine
	id    int
	clock float64

	// tl is the rank's trace log; nil when tracing is disabled.
	tl *trace.RankLog
	// lastCollPh and lastCollSeq identify the collective rendezvous round
	// this rank most recently arrived at (stamped on the collective's
	// trace event by syncTo).
	lastCollPh  string
	lastCollSeq int64
	// leaving is set between LeaveBarrier and the Depart that completes it.
	leaving bool

	// Stats is the rank's accounting; readable after Run completes.
	Stats Stats
}

// ID returns the rank index in [0, p).
func (r *Rank) ID() int { return r.id }

// Size returns p.
func (r *Rank) Size() int { return r.m.cfg.Ranks }

// Time returns the rank's current virtual clock in seconds.
func (r *Rank) Time() float64 { return r.clock }

// Cost returns the machine's cost model, for analytic compute charging.
func (r *Rank) Cost() CostModel { return r.m.cfg.Cost }

// charge is the machine's one accounting path: it moves the clock to end,
// adds ev.Delta to Stats and, when tracing is on, logs ev. Every clock or
// counter change of a rank goes through it (clockaudit enforces that), so
// folding a trace's deltas reproduces Stats by construction.
//
//pepvet:hotpath
func (r *Rank) charge(end float64, ev trace.Event) {
	r.clock = end
	r.Stats.StatDelta.Add(ev.Delta)
	if r.tl != nil {
		r.tl.Append(ev)
	}
}

// Compute advances the virtual clock by sec seconds of computation. A
// straggler multiplier from the machine's fault plan (if any) scales the
// charge.
func (r *Rank) Compute(sec float64) {
	if sec < 0 {
		sec = 0
	}
	sec *= r.stragglerFactor()
	if sec == 0 {
		return
	}
	r.charge(r.clock+sec, trace.Event{Kind: trace.KindCompute, Name: "compute", Peer: -1, Start: r.clock, Dur: sec, Delta: trace.StatDelta{ComputeSec: sec}})
}

// ChargeComm advances the clock by sec seconds of unmaskable communication
// cost. It lets higher layers model transports the primitive set does not
// capture directly (e.g. a ring-algorithm large-vector allreduce).
func (r *Rank) ChargeComm(sec float64) {
	if sec <= 0 {
		return
	}
	r.charge(r.clock+sec, trace.Event{Kind: trace.KindCommCharge, Name: "comm-charge", Peer: -1, Start: r.clock, Dur: sec, Delta: trace.StatDelta{TotalCommSec: sec, ResidualCommSec: sec}})
}

// IdleUntil advances the rank's clock to the absolute virtual time t,
// charged as synchronization wait (the rank is parked, not computing). A
// clock already at or past t is left untouched. The serving layer uses it
// to hold a rank until a batch's dispatch instant so service-time gaps are
// first-class intervals on the timeline.
func (r *Rank) IdleUntil(t float64) {
	if t <= r.clock {
		return
	}
	d := t - r.clock
	r.charge(t, trace.Event{Kind: trace.KindIdle, Name: "idle", Peer: -1, Start: r.clock, Dur: d, Delta: trace.StatDelta{SyncWaitSec: d}})
}

// NoteAlloc records bytes of private memory acquired by the rank program
// (database buffers, indexes); NoteFree records their release. The high
// -water mark verifies the O((N+m)/p) space claim.
func (r *Rank) NoteAlloc(bytes int64) {
	r.Stats.ResidentBytes += bytes
	if r.Stats.ResidentBytes > r.Stats.MaxResidentBytes {
		r.Stats.MaxResidentBytes = r.Stats.ResidentBytes
	}
}

// NoteFree releases bytes previously recorded with NoteAlloc.
func (r *Rank) NoteFree(bytes int64) {
	r.Stats.ResidentBytes -= bytes
	if r.Stats.ResidentBytes < 0 {
		r.Stats.ResidentBytes = 0
	}
}

// Send delivers payload to rank `to` with an identifying tag. The sender is
// charged only its CPU overhead; transfer time is realized at the receiver.
// It never waits: the message joins the receiver's inbox, fixed to arrive at
// the sender's clock plus the transfer time.
func (r *Rank) Send(to int, tag string, payload []byte) {
	if to < 0 || to >= r.Size() {
		panic(fmt.Sprintf("cluster: rank %d Send to invalid rank %d", r.id, to))
	}
	r.faultPoint()
	cost := r.m.cfg.Cost
	n := int64(len(payload))
	r.charge(r.clock+cost.SendOverheadSec, trace.Event{Kind: trace.KindSend, Name: tag, Peer: to, Bytes: n, Start: r.clock, Dur: cost.SendOverheadSec, Delta: trace.StatDelta{TotalCommSec: cost.SendOverheadSec, BytesSent: n, Messages: 1}})
	xfer := cost.PathXferSec(len(payload), r.id, to, r.Size()) + r.injectSendDelay(to)
	r.m.inbox[to].put(message{from: r.id, tag: tag, payload: payload, arrival: r.clock + xfer})
}

// Recv blocks until a message from rank `from` is available and returns its
// tag and payload, advancing the clock to the message's arrival time. It
// fails once `from` has ended without sending one: with from's cause if that
// was a failure, fatally (ErrPeerFinished) if it was not.
func (r *Rank) Recv(from int) (tag string, payload []byte) {
	r.faultPoint()
	in := &r.m.inbox[r.id]
	for {
		if msg, ok := in.take(from); ok {
			return r.deliver(msg)
		}
		select {
		case <-in.wake:
		case <-r.m.ends[from]:
			// Everything `from` sent is queued by now.
			if msg, ok := in.take(from); ok {
				return r.deliver(msg)
			}
			r.peerEnded(r.m.endCause[from], fmt.Sprintf("Recv(%d): rank %d finished without sending", from, from))
		case <-r.m.abort:
			r.interrupted()
		}
	}
}

// RecvAny blocks until any message is available. Among already-queued
// messages it picks the earliest virtual arrival (ties to the lowest rank)
// to keep timing as schedule-independent as possible. It fails once no
// other active rank is still running: with the least cause among them if
// one failed, fatally (ErrPeerFinished) if none did.
func (r *Rank) RecvAny() (from int, tag string, payload []byte) {
	r.faultPoint()
	return r.recvAny("RecvAny", false)
}

// recvAny is RecvAny after the fault point; prim names the caller's
// primitive in a fatal error. For an admission, a named admitter replaces
// the other active ranks as the wait's dependency.
func (r *Rank) recvAny(prim string, admission bool) (from int, tag string, payload []byte) {
	in := &r.m.inbox[r.id]
	for {
		// Whether any sender is left is read before the queues: every message
		// of a rank that has ended is queued already.
		w := r.m.senders(r.id, admission)
		if msg, ok := in.take(-1); ok {
			tag, payload = r.deliver(msg)
			return msg.from, tag, payload
		}
		switch {
		case w.by >= 0 && w.byEnded:
			r.peerEnded(r.m.endCause[w.by], fmt.Sprintf("%s: admitting rank %d finished without sending the admission", prim, w.by))
		case w.by < 0 && w.alone:
			r.peerEnded(r.m.leastActiveEnd(r.id), prim+": every other active rank finished without sending")
		}
		select {
		case <-in.wake:
		case <-w.wake:
		case <-w.named:
		case <-r.m.abort:
			r.interrupted()
		}
	}
}

// waitSenders is what a RecvAny or AwaitAdmission waits on: by is the
// admitter it depends on (-1: the other active ranks), byEnded whether that
// rank has ended, alone whether no other active rank is still running, wake
// the channel closed when the dependency may next change and named the one
// closed when the rank is admitted.
type waitSenders struct {
	by             int
	byEnded, alone bool
	wake, named    <-chan struct{}
}

// senders snapshots rank id's wait dependency: for an admission with a
// named admitter that rank, otherwise every other active rank.
func (m *Machine) senders(id int, admission bool) waitSenders {
	m.memberMu.Lock()
	defer m.memberMu.Unlock()
	w := waitSenders{by: -1}
	if admission {
		if w.by = m.admitter[id]; w.by >= 0 {
			w.byEnded, w.wake = m.ended(w.by), m.ends[w.by]
			return w
		}
		w.named = m.admitted[id]
	}
	others := m.live
	if m.active[id] {
		others--
	}
	w.alone, w.wake = others == 0, m.idle
	return w
}

// leastActiveEnd returns the least cause among the active ranks other than
// id, all of which have ended (a cause that is no failure when none failed).
func (m *Machine) leastActiveEnd(id int) cause {
	m.memberMu.Lock()
	defer m.memberMu.Unlock()
	least := cause{rank: id}
	for j, a := range m.active {
		if a && j != id && m.endCause[j].before(least) {
			least = m.endCause[j]
		}
	}
	return least
}

// deliver advances the receiver clock to the arrival time and accounts the
// transfer. The wait splits into a communication part (up to the transfer
// cost) and a synchronization part (the sender had not reached its send
// yet — load imbalance, not network time).
func (r *Rank) deliver(msg message) (string, []byte) {
	xfer := r.m.cfg.Cost.PathXferSec(len(msg.payload), msg.from, r.id, r.Size())
	n := int64(len(msg.payload))
	ev := trace.Event{Kind: trace.KindRecv, Name: msg.tag, Peer: msg.from, Bytes: n, Start: r.clock, Delta: trace.StatDelta{TotalCommSec: xfer, BytesReceived: n}}
	end := r.clock
	if wait := msg.arrival - r.clock; wait > 0 {
		end = msg.arrival
		comm := wait
		if comm > xfer {
			comm = xfer
		}
		ev.Delta.ResidualCommSec, ev.Delta.SyncWaitSec = comm, wait-comm
	}
	ev.Dur = end - ev.Start
	r.charge(end, ev)
	return msg.tag, msg.payload
}

// Expose publishes data under name as a one-sided RMA window owned by this
// rank. Nobody writes the data after the call, the owner included: every
// Wait hands readers these very bytes, without involving this rank's clock
// — the "without disturbing the remote processor" property of MPI_Get.
// Under the race detector a write is caught at the window's re-exposure or
// at the end of the Run, and fails the Run.
func (r *Rank) Expose(name string, data []byte) {
	r.faultPoint()
	r.charge(r.clock, trace.Event{Kind: trace.KindExpose, Name: name, Peer: -1, Bytes: int64(len(data)), Start: r.clock})
	w := &window{data: data, exposeTime: r.clock}
	if checkWindows {
		w.sum = maphash.Bytes(windowSeed, data)
	}
	t := &r.m.wins[r.id]
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[string]*window)
	}
	// A re-exposure replaces the window in a new epoch; it never writes
	// through the old one.
	old := t.m[name]
	t.m[name] = w
	if t.wake != nil {
		close(t.wake) // wake the ranks waiting for a window of this owner
		t.wake = nil
	}
	t.mu.Unlock()
	if old != nil && r.m.checkWritten(r.id, name, old) {
		r.interrupted()
	}
}

// Pending is an in-flight one-sided get; Wait completes it.
type Pending struct {
	r            *Rank
	owner        int
	name         string
	issueTime    float64
	issueCompute float64 // rank's ComputeSec at issue, to detect blocking use
	done         bool
}

// Get initiates a non-blocking one-sided read of rank owner's window. The
// issuing rank may compute while the transfer proceeds; the transfer cost
// is charged at Wait, masked by any computation performed in between.
func (r *Rank) Get(owner int, name string) *Pending {
	if owner < 0 || owner >= r.Size() {
		panic(fmt.Sprintf("cluster: rank %d Get from invalid rank %d", r.id, owner))
	}
	r.faultPoint()
	r.charge(r.clock, trace.Event{Kind: trace.KindGetIssue, Name: name, Peer: owner, Start: r.clock, Delta: trace.StatDelta{Messages: 1}})
	return &Pending{r: r, owner: owner, name: name, issueTime: r.clock, issueCompute: r.Stats.ComputeSec}
}

// waitWindow blocks until owner's window under name exists or the owner's
// body ends. An owner that ended by a failure fails the wait with
// ErrRankFailed naming that failure's rank, charged its detection; one that
// completed without exposing the window fails it with ErrNoWindow. An
// exposure merely still in flight is therefore waited for, not an error.
// Every exit condition is a fact of the owner's own program order, so the
// outcome is schedule-independent.
func (r *Rank) waitWindow(owner int, name string) (*window, error) {
	// Fast path: in steady-state transport loops the window was exposed long
	// ago. At p=4096 this lookup runs O(p²) times per run.
	if w := r.m.window(owner, name); w != nil {
		return w, nil
	}
	if owner == r.id {
		// A rank knows its own windows synchronously.
		return nil, fmt.Errorf("cluster: rank %d: window %q: %w", r.id, name, ErrNoWindow)
	}
	for {
		w, exposed := r.m.windowOrWake(owner, name)
		if w != nil {
			return w, nil
		}
		select {
		case <-exposed:
		case <-r.m.ends[owner]:
			if w := r.m.window(owner, name); w != nil {
				return w, nil // exposed before the owner ended
			}
			c := r.m.endCause[owner]
			if !c.failed {
				return nil, fmt.Errorf("cluster: rank %d: window %q: rank %d finished without exposing it: %w", r.id, name, owner, ErrNoWindow)
			}
			r.observe(c)
			return nil, ErrRankFailed{Rank: c.rank}
		case <-r.m.abort:
			r.interrupted()
		}
	}
}

// Wait completes the get and returns the window's bytes: the owner's own
// slice, capped so that an append reallocates, and read-only — no rank
// writes it, this one included (see Expose). A result fetched before a
// re-exposure keeps its epoch's bytes. The clock advances only by the
// residual (unmasked) transfer time:
// completion = max(issueTime, exposeTime) + λ + bytes·μ, and the rank's
// clock becomes max(clock, completion). If the window is not exposed yet,
// Wait blocks until the owner exposes it (or fails, or finishes without
// exposing). Injected transfer drops are retried with exponential backoff
// (plus bounded deterministic jitter when the plan configures it) charged
// on the virtual clock; exhausting the budget fails this rank.
func (p *Pending) Wait() ([]byte, error) {
	if p.done {
		return nil, errors.New("cluster: Wait called twice on the same Pending")
	}
	p.done = true
	r := p.r
	r.faultPoint()
	entry := r.clock
	w, err := r.waitWindow(p.owner, p.name)
	if err != nil {
		r.charge(r.clock, trace.Event{Kind: trace.KindGetWait, Name: p.name, Peer: p.owner, Start: entry, Dur: r.clock - entry, Note: err.Error()})
		return nil, err
	}
	data, exposeTime := w.data, w.exposeTime

	start := p.issueTime
	if exposeTime > start {
		start = exposeTime
	}
	blocking := r.Stats.ComputeSec == p.issueCompute
	cost := r.m.cfg.Cost
	xfer := cost.PathRMAXferSec(len(data), p.owner, r.id, r.Size(), blocking)

	// Injected drops: every failed attempt costs a full transfer plus an
	// exponentially growing backoff before the reissue, all charged on the
	// virtual clock. Exhausting the budget abandons the transfer and fails
	// the issuing rank (recoverably).
	var retryExtra float64
	var nretries int64
	attempts := 1
	for r.dropTransfer(p.owner) {
		nretries++
		if attempts > r.m.fault.plan.maxRetries() {
			terr := TransferError{Owner: p.owner, Window: p.name, Attempts: attempts}
			lost := retryExtra + xfer
			end := r.clock + lost
			r.charge(end, trace.Event{Kind: trace.KindGetWait, Name: p.name, Peer: p.owner, Start: entry, Dur: end - entry, Note: terr.Error(), Delta: trace.StatDelta{TotalCommSec: lost, ResidualCommSec: lost, RMARetries: nretries, RMAFailures: 1}})
			r.m.failRank(r.id, ErrRankFailed{Rank: r.id, Cause: terr}, r.clock)
			return nil, terr
		}
		backoff := r.m.fault.plan.retryBackoffSec(cost) * float64(int64(1)<<uint(attempts-1)) * r.retryJitter()
		retryExtra += xfer + backoff
		attempts++
	}
	completion := start + retryExtra + xfer
	n := int64(len(data))
	ev := trace.Event{Kind: trace.KindGetWait, Name: p.name, Peer: p.owner, Bytes: n, Start: entry, Delta: trace.StatDelta{BytesReceived: n, RMABytesReceived: n, RMARetries: nretries}}
	if blocking {
		ev.Note = "blocking"
	}
	waited := completion - r.clock
	if waited < 0 {
		waited = 0
	}
	// The op's total cost is its transfer time (including retry attempts)
	// or, when exposure lag stretched the wait, the full unmasked wait —
	// keeping residual ≤ total per op.
	ev.Delta.TotalCommSec = retryExtra + xfer
	if waited > retryExtra+xfer {
		ev.Delta.TotalCommSec = waited
	}
	end := r.clock
	if waited > 0 {
		ev.Delta.ResidualCommSec = waited
		end = completion
	}
	ev.Dur = end - entry
	r.charge(end, ev)
	return data[:n:n], nil
}
