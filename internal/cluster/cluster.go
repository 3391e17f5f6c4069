// Package cluster provides a virtual distributed-memory machine: the
// substrate that stands in for the paper's MPI cluster. Each rank runs as a
// goroutine with private memory; ranks interact only through the machine's
// primitives — point-to-point messages, tree collectives (Barrier,
// Allreduce, Bcast, Gather), a personalized all-to-all (Alltoallv), and
// one-sided RMA windows (Expose / Get / Wait) with the non-blocking,
// target-passive semantics of MPI_Get over RDMA.
//
// Alongside real data movement, every rank carries a deterministic virtual
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
	"sort"
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
	// MailboxDepth bounds buffered point-to-point messages per receiver.
	// The default scales with the machine so total buffer space stays
	// O(p): 4096 slots per rank up to p=64, shrinking hyperbolically to 64
	// slots at p≥4096. Depth is virtual-time-neutral (arrival times are
	// fixed at Send; a sender parked on a full mailbox charges nothing),
	// so the default only bounds host memory, never the virtual clock.
	MailboxDepth int
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

	mailbox []chan message

	// wins[owner] holds the RMA windows rank owner has exposed. One table
	// per owner, each behind its own lock, so two host threads meet only when
	// they read from the same owner at the same instant.
	wins []winTable

	coll  *phaser
	world *commShared

	// Membership state behind memberMu: which ranks of the universe are
	// currently active. Sized to the universe at construction and only ever
	// flipped through markActive's bounds checks, so admission can never
	// index past the per-rank arrays.
	memberMu sync.Mutex
	active   []bool

	// groups memoizes sub-communicators built by Rank.Group, keyed by the
	// sorted member list so every member of one epoch shares a single
	// rendezvous. Reset clears it: a crashed run may leave a group phaser
	// round with permanently missing arrivals, exactly like the world
	// phaser.
	groupMu sync.Mutex
	groups  map[string]*commShared

	fault *faultState

	// rec collects per-rank trace events when Config.Trace is set.
	rec *trace.Recorder

	// abort is closed only on FATAL failures (body errors, unexpected
	// panics): every blocked primitive unwinds immediately and the run is
	// unrecoverable. Recoverable rank failures never close it — survivors
	// instead unwind through the deterministic stuck-rank analysis (see
	// doomed), so the set of events a survivor records cannot depend on
	// goroutine scheduling.
	abortOnce sync.Once
	abort     chan struct{}
	errOnce   sync.Once
	abortErr  error

	// failCh is closed by a Run's first failure (failRank or doAbort) once
	// failMu records it; until then a rank parked in a collective waits on
	// it instead of on every broadcast (see awaitRound). collWakes counts
	// those ranks' wake-ups, host-only: no clock, Stats or trace reads it.
	failOnce  sync.Once
	failCh    chan struct{}
	collWakes atomic.Int64

	// Blocked-state registry behind blockMu: which primitive each rank is
	// parked in (blocked), plus per-receiver in-flight message counts
	// (inflight[to][from] = messages sent but not yet pulled) so the
	// stuck-rank analysis can see mailbox traffic it cannot inspect
	// through the channel. Sparse maps replace the former p×p counter
	// arrays, which cost 268 MB at p=4096. Ranks register lazily — only
	// once the machine carries a failure — keeping the failure-free path
	// free of registry traffic.
	blockMu  sync.Mutex
	blocked  []blockInfo
	inflight []map[int]int64

	// stateVer counts mutations of every input the stuck-rank analysis
	// reads (blocked registry, in-flight counts, failures, finished
	// bodies, window exposures). doomed caches its fixpoint verdicts under
	// anMu keyed by this version, so a wave of p survivors observing one
	// failure costs one O(p) evaluation per state change instead of p
	// fresh O(p²) evaluations.
	stateVer atomic.Uint64

	// Analysis scratch behind anMu: machine-owned buffers reused across
	// doomed evaluations (no per-call allocation), plus the cached
	// verdicts and the stateVer they correspond to.
	anMu       sync.Mutex
	anVer      uint64
	anValid    bool
	anCan      []bool
	anBlocked  []blockInfo
	anFailed   []bool
	anDone     []bool
	anAvailAny []bool // rank has ≥1 in-flight message from another rank
	anAvailPk  []bool // blockRecv(peer): in-flight message from that peer
	anWinOpen  []bool // blockWindow: the awaited window is exposed
	anRound    map[*phRound]int8

	// Failure bookkeeping behind failMu: which ranks failed (crash or
	// exhausted transfer retries), the first failure's rank and virtual
	// time, and whether any non-recoverable (fatal) failure occurred.
	failMu          sync.Mutex
	failures        map[int]error
	firstFailedRank int
	firstFailTime   float64
	fatalSeen       bool

	// bodyDone tracks which ranks' bodies have returned this Run, so a Wait
	// on a not-yet-exposed window can distinguish "exposure in flight" from
	// "owner finished without exposing".
	bodyMu   sync.Mutex
	bodyDone []bool

	// notifyCh is a broadcast channel closed and replaced on every
	// machine-level event a blocked Wait may be watching for (window
	// exposure, body completion, rank failure).
	notifyMu sync.Mutex
	notifyCh chan struct{}
}

// winTable is one owner's windows by name. An RWMutex because lookups
// (every rank, every transport step) vastly outnumber exposures.
type winTable struct {
	mu sync.RWMutex
	m  map[string]*window
}

// window is one exposure: immutable once published. A re-exposure swaps in a
// new value under the table's lock, so a Wait that loaded the old one keeps
// reading the old epoch's data and time together.
type window struct {
	data       []byte
	exposeTime float64
}

// window returns owner's current exposure under name, or nil.
func (m *Machine) window(owner int, name string) *window {
	t := &m.wins[owner]
	t.mu.RLock()
	w := t.m[name]
	t.mu.RUnlock()
	return w
}

type message struct {
	from    int
	tag     string
	payload []byte
	arrival float64
}

// blockKind classifies the primitive a rank is parked in.
type blockKind uint8

const (
	blockNone   blockKind = iota
	blockSend             // mailbox at peer is full
	blockRecv             // waiting for a message from peer (any if peer < 0)
	blockWindow           // waiting for peer to expose the named window
	blockColl             // waiting at a collective rendezvous round
)

// blockInfo records what a parked rank is waiting for, feeding the
// stuck-rank analysis that replaces racy abort unwinding.
type blockInfo struct {
	kind    blockKind
	peer    int
	name    string   // blockWindow: the window name
	round   *phRound // blockColl: the rendezvous round (identity by pointer)
	members []int    // blockColl: global rank ids of the round's members
}

// ErrAborted is reported when a machine operation is interrupted because
// another rank failed.
var ErrAborted = errors.New("cluster: machine aborted")

// defaultMailboxDepth caps total buffered-message slots at 2^18 across the
// machine so a p=4096 machine does not pre-allocate gigabytes of channel
// buffers, while small machines keep the historical per-rank depth of 4096.
func defaultMailboxDepth(p int) int {
	const totalSlots = 1 << 18
	d := totalSlots / p
	if d > 4096 {
		d = 4096
	}
	if d < 64 {
		d = 64
	}
	return d
}

// New creates a machine with p ranks.
func New(cfg Config) (*Machine, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 rank, got %d", cfg.Ranks)
	}
	if cfg.MailboxDepth <= 0 {
		cfg.MailboxDepth = defaultMailboxDepth(cfg.Ranks)
	}
	if err := cfg.Fault.Validate(cfg.Ranks); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:             cfg,
		wins:            make([]winTable, cfg.Ranks),
		groups:          make(map[string]*commShared),
		abort:           make(chan struct{}),
		failCh:          make(chan struct{}),
		failures:        make(map[int]error),
		firstFailedRank: -1,
		bodyDone:        make([]bool, cfg.Ranks),
		notifyCh:        make(chan struct{}),
	}
	m.active = make([]bool, cfg.Ranks)
	if cfg.Members == nil {
		for i := range m.active {
			m.active[i] = true
		}
	} else {
		for _, id := range cfg.Members {
			if id < 0 || id >= cfg.Ranks {
				return nil, fmt.Errorf("cluster: Config.Members rank %d outside [0,%d)", id, cfg.Ranks)
			}
			if m.active[id] {
				return nil, fmt.Errorf("cluster: Config.Members rank %d duplicated", id)
			}
			m.active[id] = true
		}
	}
	m.fault = newFaultState(cfg.Fault, cfg.Ranks)
	worldRanks := make([]int, cfg.Ranks)
	for i := range worldRanks {
		worldRanks[i] = i
	}
	m.coll = newPhaser(worldRanks, worldPhaserID)
	m.world = &commShared{ranks: worldRanks, ph: m.coll, lv: cfg.Cost.levelsFor(worldRanks)}
	m.blocked = make([]blockInfo, cfg.Ranks)
	m.inflight = make([]map[int]int64, cfg.Ranks)
	if cfg.Trace {
		m.rec = trace.NewRecorder(cfg.Ranks)
	}
	m.mailbox = make([]chan message, cfg.Ranks)
	m.ranks = make([]*Rank, cfg.Ranks)
	for i := 0; i < cfg.Ranks; i++ {
		m.mailbox[i] = make(chan message, cfg.MailboxDepth)
		m.ranks[i] = &Rank{m: m, id: i, pending: make(map[int][]message)}
		if m.rec != nil {
			m.ranks[i].tl = m.rec.Rank(i)
		}
	}
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
	m.fatalSeen = true
	m.failMu.Unlock()
	m.errOnce.Do(func() { m.abortErr = err })
	m.failOnce.Do(func() { close(m.failCh) })
	m.abortOnce.Do(func() { close(m.abort) })
	m.broadcast()
}

// failRank records a recoverable rank failure at virtual time vtime and
// wakes every blocked primitive so survivors can observe it. It does NOT
// close the abort channel: survivors keep running until the stuck-rank
// analysis proves they can never proceed, which keeps the failure's effect
// on each survivor a function of virtual state alone.
func (m *Machine) failRank(rank int, err error, vtime float64) {
	m.failMu.Lock()
	if _, dup := m.failures[rank]; !dup {
		m.failures[rank] = err
		if m.firstFailedRank < 0 {
			m.firstFailedRank = rank
			m.firstFailTime = vtime
		}
	}
	m.failMu.Unlock()
	m.errOnce.Do(func() { m.abortErr = err })
	m.failOnce.Do(func() { close(m.failCh) })
	m.stateVer.Add(1)
	m.broadcast()
}

// hasFailure reports whether any failure (recoverable or fatal) has been
// recorded this Run — the gate for registering blocked state.
func (m *Machine) hasFailure() bool {
	m.failMu.Lock()
	defer m.failMu.Unlock()
	return m.firstFailedRank >= 0 || m.fatalSeen
}

// setBlocked registers what rank is parked waiting for. Idempotent: only a
// changed registration broadcasts.
func (m *Machine) setBlocked(rank int, b blockInfo) {
	m.blockMu.Lock()
	cur := m.blocked[rank]
	if cur.kind == b.kind && cur.peer == b.peer && cur.name == b.name && cur.round == b.round {
		m.blockMu.Unlock()
		return
	}
	m.blocked[rank] = b
	m.blockMu.Unlock()
	m.stateVer.Add(1)
	m.broadcast()
}

// clearBlocked removes rank's registration when it leaves a blocking
// primitive (by completing it or by unwinding out of it).
func (m *Machine) clearBlocked(rank int) {
	m.blockMu.Lock()
	if m.blocked[rank].kind == blockNone {
		m.blockMu.Unlock()
		return
	}
	m.blocked[rank] = blockInfo{}
	m.blockMu.Unlock()
	m.stateVer.Add(1)
	m.broadcast()
}

// noteSent counts a message headed for `to`'s mailbox BEFORE the channel
// send, so the analysis over-approximates in-flight traffic (a message it
// counts either lands or is uncounted again when the sender unwinds).
func (m *Machine) noteSent(to, from int) {
	m.blockMu.Lock()
	if m.inflight[to] == nil {
		m.inflight[to] = make(map[int]int64)
	}
	m.inflight[to][from]++
	m.blockMu.Unlock()
	m.stateVer.Add(1)
}

// unsend retracts a noteSent whose channel send never happened (the sender
// unwound while parked on a full mailbox).
func (m *Machine) unsend(to, from int) {
	m.blockMu.Lock()
	m.inflight[to][from]--
	m.blockMu.Unlock()
	m.stateVer.Add(1)
	m.broadcast()
}

// shouldUnwind reports whether rank, parked in a blocked primitive, must
// unwind: immediately on a fatal abort, or — under a recoverable failure —
// once the stuck-rank analysis proves it can never be unblocked.
func (m *Machine) shouldUnwind(rank int) bool {
	m.failMu.Lock()
	fatal := m.fatalSeen
	failed := m.firstFailedRank >= 0
	m.failMu.Unlock()
	if fatal {
		return true
	}
	return failed && m.doomed(rank)
}

// doomed reports whether rank can never be unblocked by the remaining live
// ranks. It runs a can-progress fixpoint over the blocked-state registry:
// a rank progresses if it is running, or if the resource it waits for can
// still be produced by a progressing rank. The evaluation is conservative —
// transiently unregistered ranks count as running — so a true verdict is
// stable, and every survivor reaches the same verdict at the same virtual
// state regardless of real-time interleaving. That determinism is what
// makes a faulted run's trace byte-identical across schedules.
//
// Verdicts are computed into machine-owned scratch (no per-call
// allocation) and cached under the state version: every registry mutation
// bumps stateVer, so a cache hit is exactly as fresh as a recomputation,
// and a wave of p survivors observing the same failure shares one
// evaluation instead of each running its own.
func (m *Machine) doomed(rank int) bool {
	ver := m.stateVer.Load()
	m.anMu.Lock()
	defer m.anMu.Unlock()
	if !m.anValid || m.anVer != ver {
		m.recomputeCan()
		m.anVer, m.anValid = ver, true
	}
	return !m.anCan[rank]
}

// recomputeCan runs the can-progress fixpoint into the analysis scratch.
// Caller holds anMu.
func (m *Machine) recomputeCan() {
	p := m.cfg.Ranks
	if m.anCan == nil {
		m.anCan = make([]bool, p)
		m.anBlocked = make([]blockInfo, p)
		m.anFailed = make([]bool, p)
		m.anDone = make([]bool, p)
		m.anAvailAny = make([]bool, p)
		m.anAvailPk = make([]bool, p)
		m.anWinOpen = make([]bool, p)
		m.anRound = make(map[*phRound]int8)
	}
	m.failMu.Lock()
	for i := range m.anFailed {
		m.anFailed[i] = m.failures[i] != nil
	}
	m.failMu.Unlock()
	m.bodyMu.Lock()
	copy(m.anDone, m.bodyDone)
	m.bodyMu.Unlock()
	m.blockMu.Lock()
	copy(m.anBlocked, m.blocked)
	for i := range m.anAvailAny {
		m.anAvailAny[i], m.anAvailPk[i] = false, false
		//pepvet:allow determinism the any-sender verdict is a disjunction over map entries; iteration order cannot change it
		for from, n := range m.inflight[i] {
			if n > 0 && from != i {
				m.anAvailAny[i] = true
				break
			}
		}
		if b := m.anBlocked[i]; b.kind == blockRecv && b.peer >= 0 {
			m.anAvailPk[i] = m.inflight[i][b.peer] > 0
		}
	}
	m.blockMu.Unlock()
	for i := range m.anWinOpen {
		b := m.anBlocked[i]
		m.anWinOpen[i] = b.kind == blockWindow && m.window(b.peer, b.name) != nil
	}

	nCan := 0
	for i := range m.anCan {
		m.anCan[i] = !m.anFailed[i] && !m.anDone[i] && m.anBlocked[i].kind == blockNone
		if m.anCan[i] {
			nCan++
		}
	}
	for changed := true; changed; {
		changed = false
		// Collective-round verdicts are memoized per pass: a stale negative
		// only delays a flip to the next pass, which the flip itself forces.
		clear(m.anRound)
		for i := range m.anCan {
			if m.anCan[i] || m.anFailed[i] || m.anDone[i] || m.anBlocked[i].kind == blockNone {
				continue
			}
			if m.mayUnblock(i, nCan) {
				m.anCan[i] = true
				nCan++
				changed = true
			}
		}
	}
}

// mayUnblock evaluates one parked rank's dependency against the current
// can-progress scratch. nCan is the number of ranks currently able to
// progress (none of which is i — i is blocked). Caller holds anMu.
func (m *Machine) mayUnblock(i, nCan int) bool {
	b := m.anBlocked[i]
	switch b.kind {
	case blockSend:
		// Needs the receiver to drain its mailbox.
		return m.anCan[b.peer]
	case blockRecv:
		if b.peer >= 0 {
			return m.anAvailPk[i] || m.anCan[b.peer]
		}
		// Any in-flight message, or any rank that can still send one.
		return m.anAvailAny[i] || nCan > 0
	case blockWindow:
		// An exposed window unblocks the waiter with data; a failed or
		// finished owner unblocks it with an error return.
		return m.anWinOpen[i] || m.anFailed[b.peer] || m.anDone[b.peer] || m.anCan[b.peer]
	case blockColl:
		// The rendezvous completes only if every member that has not yet
		// arrived at this round can still arrive.
		if v := m.anRound[b.round]; v != 0 {
			return v > 0
		}
		ok := true
		for _, g := range b.members {
			if g == i {
				continue
			}
			if m.anBlocked[g].kind == blockColl && m.anBlocked[g].round == b.round {
				continue // already arrived and parked on the same round
			}
			if !m.anCan[g] {
				ok = false
				break
			}
		}
		if ok {
			m.anRound[b.round] = 1
		} else {
			m.anRound[b.round] = -1
		}
		return ok
	}
	return true
}

// firstCrash returns the first recoverable failure's rank and virtual time.
// It reports false when the machine is healthy or the failure is fatal
// (fatal aborts unwind via abortPanic, not the failure-detection path).
func (m *Machine) firstCrash() (rank int, vtime float64, ok bool) {
	m.failMu.Lock()
	defer m.failMu.Unlock()
	if m.firstFailedRank >= 0 && !m.fatalSeen {
		return m.firstFailedRank, m.firstFailTime, true
	}
	return 0, 0, false
}

// isFailed reports whether rank has been marked failed.
func (m *Machine) isFailed(rank int) bool {
	m.failMu.Lock()
	defer m.failMu.Unlock()
	_, ok := m.failures[rank]
	return ok
}

// broadcast wakes every waiter blocked on machine-level state (window
// exposure, body completion, failures); collective waiters only after a failure.
func (m *Machine) broadcast() {
	m.notifyMu.Lock()
	ch := m.notifyCh
	m.notifyCh = make(chan struct{})
	m.notifyMu.Unlock()
	close(ch)
}

// notified returns a channel closed at the next machine-level event. Grab it
// BEFORE re-checking state to avoid missed wakeups.
func (m *Machine) notified() <-chan struct{} {
	m.notifyMu.Lock()
	ch := m.notifyCh
	m.notifyMu.Unlock()
	return ch
}

// noteBodyDone marks rank's body as returned for this Run.
func (m *Machine) noteBodyDone(rank int) {
	m.bodyMu.Lock()
	m.bodyDone[rank] = true
	m.bodyMu.Unlock()
	m.stateVer.Add(1)
	m.broadcast()
}

// bodyFinished reports whether rank's body has returned this Run.
func (m *Machine) bodyFinished(rank int) bool {
	m.bodyMu.Lock()
	defer m.bodyMu.Unlock()
	return m.bodyDone[rank]
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
// firing time (crash time + detection timeout), accounted as
// synchronization wait.
func (r *Rank) chargeDetection(failed int, crashT float64) {
	det := crashT + r.m.detectSec()
	if det > r.clock {
		d := det - r.clock
		r.charge(det, trace.Event{Kind: trace.KindDetect, Name: "fault-detect", Peer: failed, Start: r.clock, Dur: d, Delta: trace.StatDelta{SyncWaitSec: d}})
	}
}

// interrupted unwinds the calling rank out of a blocked primitive after the
// machine aborted. A recoverable peer crash charges the detection timeout
// and unwinds as failPanic (Run records ErrRankFailed for the survivor); a
// fatal abort unwinds as abortPanic. Never returns.
func (r *Rank) interrupted() {
	if rank, t, ok := r.m.firstCrash(); ok {
		r.chargeDetection(rank, t)
		panic(failPanic{rank: rank})
	}
	panic(abortPanic{})
}

// interruptedErr is interrupted for error-returning primitives (Wait): a
// recoverable crash becomes an ErrRankFailed return; a fatal abort still
// panics (recovered by Run).
func (r *Rank) interruptedErr() error {
	if rank, t, ok := r.m.firstCrash(); ok {
		r.chargeDetection(rank, t)
		return ErrRankFailed{Rank: rank}
	}
	panic(abortPanic{})
}

// RunReport describes one Run's outcome per rank, distinguishing
// recoverable rank failures (crashes, exhausted transfer retries) from
// fatal aborts (body errors, unexpected panics).
type RunReport struct {
	// Err is the machine's first failure; nil when every rank completed.
	Err error
	// Fatal marks a non-recoverable failure (rank body error or panic).
	Fatal bool
	// FailedRanks lists failed ranks in ascending order.
	FailedRanks []int
	// FailureTimeSec is the virtual time of the first failure (0 if none).
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
	if m.abortErr != nil {
		return &RunReport{
			Err:   fmt.Errorf("cluster: machine aborted by a previous run (call Reset): %w", m.abortErr),
			Fatal: true,
		}
	}
	p := m.cfg.Ranks
	m.bodyMu.Lock()
	for i := range m.bodyDone {
		m.bodyDone[i] = false
	}
	m.bodyMu.Unlock()
	outcomes := make([]error, p)
	var wg sync.WaitGroup
	for _, r := range m.ranks {
		wg.Add(1)
		//pepvet:allow ranksafety Run is the ownership hand-off: each Rank is given to exactly one goroutine for the duration of the body
		go func(r *Rank) {
			defer wg.Done()
			defer m.noteBodyDone(r.id)
			defer func() {
				switch rec := recover().(type) {
				case nil:
				case abortPanic:
					outcomes[r.id] = m.abortErr // unwound by a fatal abort
				case failPanic:
					outcomes[r.id] = ErrRankFailed{Rank: rec.rank}
				case crashPanic:
					outcomes[r.id] = rec.err // own failure, already recorded
				default:
					err := fmt.Errorf("cluster: rank %d panicked: %v", r.id, rec)
					m.doAbort(err)
					outcomes[r.id] = err
				}
			}()
			if err := body(r); err != nil {
				var rf ErrRankFailed
				if errors.As(err, &rf) || m.isFailed(r.id) {
					// Recoverable failure surfaced through the body's own
					// error return; already recorded via failRank.
					outcomes[r.id] = err
				} else {
					wrapped := fmt.Errorf("cluster: rank %d: %w", r.id, err)
					m.doAbort(wrapped)
					outcomes[r.id] = wrapped
				}
			}
		}(r)
	}
	wg.Wait()
	rep := &RunReport{Err: m.abortErr, RankErrs: make(map[int]error, p)}
	m.failMu.Lock()
	for i := 0; i < p; i++ {
		if m.failures[i] != nil {
			rep.FailedRanks = append(rep.FailedRanks, i)
		}
	}
	rep.Fatal = m.fatalSeen
	if m.firstFailedRank >= 0 {
		rep.FailureTimeSec = m.firstFailTime
	}
	m.failMu.Unlock()
	for i, err := range outcomes {
		if err != nil {
			rep.RankErrs[i] = err
		}
	}
	return rep
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

// Reset clears clocks, statistics, windows, pending messages, and failure
// state, leaving the machine ready for a fresh Run — including after an
// aborted one: the abort channel, collective rendezvous, and fault-plan
// PRNG streams are all recreated, so a Reset machine replays a fault
// schedule identically. It must not be called concurrently with Run.
func (m *Machine) Reset() {
	for i, r := range m.ranks {
		r.clock = 0
		r.Stats = Stats{}
		r.leaving = false
		r.pending = make(map[int][]message)
	drain:
		for {
			select {
			case <-m.mailbox[i]:
			default:
				break drain
			}
		}
	}
	m.wins = make([]winTable, m.cfg.Ranks)
	// A crashed run may have poisoned the collective rendezvous (a round
	// with permanently missing arrivals); rebuild it and the world
	// communicator that references it.
	worldRanks := make([]int, m.cfg.Ranks)
	for i := range worldRanks {
		worldRanks[i] = i
	}
	m.coll = newPhaser(worldRanks, worldPhaserID)
	m.world = &commShared{ranks: worldRanks, ph: m.coll, lv: m.cfg.Cost.levelsFor(worldRanks)}
	m.groupMu.Lock()
	m.groups = make(map[string]*commShared)
	m.groupMu.Unlock()
	// Membership reverts to the configured initial set, so a Reset machine
	// replays an elastic schedule from its starting roster.
	m.memberMu.Lock()
	for i := range m.active {
		m.active[i] = m.cfg.Members == nil
	}
	if m.cfg.Members != nil {
		for _, id := range m.cfg.Members {
			m.active[id] = true
		}
	}
	m.memberMu.Unlock()
	m.abortOnce = sync.Once{}
	m.abort = make(chan struct{})
	m.failOnce = sync.Once{}
	m.failCh = make(chan struct{})
	m.errOnce = sync.Once{}
	m.abortErr = nil
	m.blockMu.Lock()
	for i := range m.blocked {
		m.blocked[i] = blockInfo{}
		clear(m.inflight[i])
	}
	m.blockMu.Unlock()
	m.anMu.Lock()
	m.anValid = false
	m.anMu.Unlock()
	m.stateVer.Add(1)
	m.failMu.Lock()
	m.failures = make(map[int]error)
	m.firstFailedRank = -1
	m.firstFailTime = 0
	m.fatalSeen = false
	m.failMu.Unlock()
	m.bodyMu.Lock()
	for i := range m.bodyDone {
		m.bodyDone[i] = false
	}
	m.bodyMu.Unlock()
	m.fault = newFaultState(m.cfg.Fault, m.cfg.Ranks)
	if m.rec != nil {
		m.rec.Reset()
	}
	m.broadcast()
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
	m       *Machine
	id      int
	clock   float64
	pending map[int][]message

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
func (r *Rank) Send(to int, tag string, payload []byte) {
	if to < 0 || to >= r.Size() {
		panic(fmt.Sprintf("cluster: rank %d Send to invalid rank %d", r.id, to))
	}
	r.faultPoint()
	cost := r.m.cfg.Cost
	n := int64(len(payload))
	r.charge(r.clock+cost.SendOverheadSec, trace.Event{Kind: trace.KindSend, Name: tag, Peer: to, Bytes: n, Start: r.clock, Dur: cost.SendOverheadSec, Delta: trace.StatDelta{TotalCommSec: cost.SendOverheadSec, BytesSent: n, Messages: 1}})
	xfer := cost.PathXferSec(len(payload), r.id, to, r.Size()) + r.injectSendDelay(to)
	msg := message{from: r.id, tag: tag, payload: payload, arrival: r.clock + xfer}
	r.m.noteSent(to, r.id)
	select {
	case r.m.mailbox[to] <- msg:
	default:
		r.sendSlow(to, msg)
	}
}

// sendSlow parks the sender on a full mailbox until space frees up, the
// stuck-rank analysis proves the receiver can never drain it, or a fatal
// abort fires.
func (r *Rank) sendSlow(to int, msg message) {
	defer r.m.clearBlocked(r.id)
	for {
		ch := r.m.notified()
		select {
		case r.m.mailbox[to] <- msg:
			return
		default:
		}
		if r.m.hasFailure() {
			r.m.setBlocked(r.id, blockInfo{kind: blockSend, peer: to})
			if r.m.shouldUnwind(r.id) {
				r.m.unsend(to, r.id) // the message never entered the mailbox
				r.interrupted()
			}
		}
		select {
		case r.m.mailbox[to] <- msg:
			return
		case <-ch:
		case <-r.m.abort:
			r.m.unsend(to, r.id)
			r.interrupted()
		}
	}
}

// Recv blocks until a message from rank `from` is available and returns its
// tag and payload, advancing the clock to the message's arrival time.
func (r *Rank) Recv(from int) (tag string, payload []byte) {
	r.faultPoint()
	for {
		if q := r.pending[from]; len(q) > 0 {
			msg := q[0]
			r.pending[from] = q[1:]
			return r.deliver(msg)
		}
		r.pullOne(from)
	}
}

// RecvAny blocks until any message is available. Among already-queued
// messages it picks the earliest virtual arrival (ties to the lowest rank)
// to keep timing as schedule-independent as possible.
func (r *Rank) RecvAny() (from int, tag string, payload []byte) {
	r.faultPoint()
	for {
		// Drain anything immediately available so the arrival-time choice
		// sees all queued messages.
		for {
			select {
			case msg := <-r.m.mailbox[r.id]:
				r.intake(msg)
				continue
			default:
			}
			break
		}
		if from, ok := r.earliestPending(); ok {
			q := r.pending[from]
			msg := q[0]
			r.pending[from] = q[1:]
			tag, payload = r.deliver(msg)
			return msg.from, tag, payload
		}
		r.pullOne(-1)
	}
}

func (r *Rank) earliestPending() (int, bool) {
	best := -1
	var bestArrival float64
	senders := make([]int, 0, len(r.pending))
	//pepvet:allow determinism senders are collected then sorted; the arrival-time choice below is order-independent
	for from, q := range r.pending {
		if len(q) > 0 {
			senders = append(senders, from)
		}
	}
	sort.Ints(senders)
	for _, from := range senders {
		a := r.pending[from][0].arrival
		if best < 0 || a < bestArrival {
			best, bestArrival = from, a
		}
	}
	return best, best >= 0
}

// intake moves one message from the mailbox into the pending queues,
// keeping the in-flight counter in step.
func (r *Rank) intake(msg message) {
	r.m.blockMu.Lock()
	r.m.inflight[r.id][msg.from]--
	r.m.blockMu.Unlock()
	r.m.stateVer.Add(1)
	r.pending[msg.from] = append(r.pending[msg.from], msg)
}

// pullOne blocks until one mailbox message can be moved into the pending
// queues. from names the sender the caller is waiting for (-1: any), which
// scopes the stuck-rank analysis once the machine carries a failure.
func (r *Rank) pullOne(from int) {
	defer r.m.clearBlocked(r.id)
	for {
		ch := r.m.notified()
		select {
		case msg := <-r.m.mailbox[r.id]:
			r.intake(msg)
			return
		default:
		}
		if r.m.hasFailure() {
			r.m.setBlocked(r.id, blockInfo{kind: blockRecv, peer: from})
			if r.m.shouldUnwind(r.id) {
				r.interrupted()
			}
		}
		select {
		case msg := <-r.m.mailbox[r.id]:
			r.intake(msg)
			return
		case <-ch:
		case <-r.m.abort:
			r.interrupted()
		}
	}
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
// rank. The data must not be mutated while exposed (standard RMA epoch
// discipline); Get copies out of it without involving this rank's clock —
// the "without disturbing the remote processor" property of MPI_Get.
func (r *Rank) Expose(name string, data []byte) {
	r.faultPoint()
	r.charge(r.clock, trace.Event{Kind: trace.KindExpose, Name: name, Peer: -1, Bytes: int64(len(data)), Start: r.clock})
	t := &r.m.wins[r.id]
	t.mu.Lock()
	if t.m == nil {
		t.m = make(map[string]*window)
	}
	_, again := t.m[name]
	// A re-exposure replaces the window in a new epoch; it never writes
	// through the old one.
	t.m[name] = &window{data: data, exposeTime: r.clock}
	t.mu.Unlock()
	if !again {
		r.m.stateVer.Add(1) // the stuck-rank analysis reads which windows exist
	}
	r.m.broadcast() // wake waiters blocked on this exposure
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

// waitWindow blocks until owner's window under name exists, the owner fails
// (ErrRankFailed), or the owner's body finishes without ever exposing it
// (ErrNoWindow — unless a peer failure explains the missing exposure, which
// is reported as ErrRankFailed instead). An exposure merely still in flight
// is therefore waited for, not an error. Every exit condition is a fact of
// the virtual execution, so the outcome is schedule-independent.
func (r *Rank) waitWindow(owner int, name string) (*window, error) {
	// Fast path: in steady-state transport loops the window was exposed long
	// ago, so skip the wakeup-channel registration and blocked-state
	// bookkeeping entirely. At p=4096 this lookup runs O(p²) times per run.
	if w := r.m.window(owner, name); w != nil {
		return w, nil
	}
	defer r.m.clearBlocked(r.id)
	for {
		ch := r.m.notified() // grab before re-checking to avoid lost wakeups
		if w := r.m.window(owner, name); w != nil {
			return w, nil
		}
		if owner == r.id {
			// A rank knows its own windows synchronously.
			return nil, fmt.Errorf("cluster: rank %d: window %q: %w", r.id, name, ErrNoWindow)
		}
		if r.m.isFailed(owner) {
			if rank, t, ok := r.m.firstCrash(); ok {
				r.chargeDetection(rank, t)
			}
			return nil, ErrRankFailed{Rank: owner}
		}
		if r.m.bodyFinished(owner) {
			if rank, t, ok := r.m.firstCrash(); ok {
				// The owner unwound as a survivor of a peer failure before
				// exposing: observe that failure rather than mis-reporting
				// the missing window as a program error.
				r.chargeDetection(rank, t)
				return nil, ErrRankFailed{Rank: rank}
			}
			return nil, fmt.Errorf("cluster: rank %d: window %q: rank %d finished without exposing it: %w", r.id, name, owner, ErrNoWindow)
		}
		if r.m.hasFailure() {
			r.m.setBlocked(r.id, blockInfo{kind: blockWindow, peer: owner, name: name})
			if r.m.shouldUnwind(r.id) {
				return nil, r.interruptedErr()
			}
		}
		select {
		case <-ch:
		case <-r.m.abort:
			return nil, r.interruptedErr()
		}
	}
}

// Wait completes the get and returns a private copy of the window data in a
// buffer of its own: WaitInto(nil).
func (p *Pending) Wait() ([]byte, error) { return p.WaitInto(nil) }

// WaitInto completes the get and returns a private copy of the window data,
// appended to buf[:0] — the caller owns buf and the result, and by passing
// the buffer of a block it has finished with it holds Dcomp and Drecv and
// nothing else, as the paper's Algorithm A does. The clock advances only by
// the residual (unmasked) transfer time:
// completion = max(issueTime, exposeTime) + λ + bytes·μ, and the rank's
// clock becomes max(clock, completion). If the window is not exposed yet,
// WaitInto blocks until the owner exposes it (or fails, or finishes without
// exposing). Injected transfer drops are retried with exponential backoff
// (plus bounded deterministic jitter when the plan configures it) charged
// on the virtual clock; exhausting the budget fails this rank.
func (p *Pending) WaitInto(buf []byte) ([]byte, error) {
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
	return append(buf[:0], data...), nil
}
