// Package serve is pepd: the always-on streaming peptide-search service on
// the virtual cluster.
//
// The server is a discrete-event loop over VIRTUAL time driving a resident
// core.Backend. Client sessions Submit query spectra at non-decreasing
// virtual instants; admission control (per-tenant token-bucket quotas and
// bounded ingress queues) either accepts a query into its tenant's formation
// ring or rejects it with a typed retry-after. A tenant's forming batch
// closes on max-batch-size or on the batching-window deadline, whichever
// comes first — interactive-priority tenants close immediately, preempting
// formation — and closed batches dispatch under weighted fair queuing
// (priority lanes first, then lowest WFQ credit) onto the least-loaded
// member rank, where core.Backend.ScanBatch advances them quantum by quantum
// through the resident blocks. Per-query top-τ results stream back
// (Completions, or a Sink called on a delivery goroutine beside the
// scheduler) the moment their batch finalizes.
//
// Membership events (a cluster.MembershipPlan timeline) rotate blocks
// between members on the live machine; crashes (seeded FaultPlans) retire
// the machine and re-boot the survivors. Both paths carry every in-flight
// batch over on the PR 4 checkpoint store: a batch whose owner left or died
// is re-staged from its last checkpoint on a surviving rank, re-offering
// exactly the post-cursor blocks — no in-flight query is ever dropped or
// answered twice.
//
// Everything is deterministic: the event loop iterates tenants in sorted
// name order, every scheduling decision is a pure function of the arrival
// schedule and configuration, and the virtual machine is deterministic
// underneath — so a seeded run's hits are bit-identical to the equivalent
// offline batch run and double-run traces are byte-identical.
package serve

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"pepscale/internal/cluster"
	"pepscale/internal/core"
	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
	"pepscale/internal/trace"
)

// Config parameterizes a server.
type Config struct {
	// DB is the FASTA database kept resident on the cluster.
	DB []byte
	// Opt are the search options (Tau, tolerance, scorer); every block is
	// scanned by the peptide-major sweep, whatever Opt.ScanMode says.
	Opt core.Options
	// Ranks is the machine's rank universe when Membership is nil (all
	// ranks start as members).
	Ranks int
	// Membership optionally sets the universe, initial member set, and
	// the live rotation timeline (join/leave events at virtual times).
	Membership *cluster.MembershipPlan
	// Blocks is the database partition width p0 (default: the initial
	// member count).
	Blocks int
	// BatchWindowSec is the batching window: a forming batch closes this
	// long after its oldest query arrived (default 0.05s).
	BatchWindowSec float64
	// MaxBatch closes a forming batch at this size (default 16).
	MaxBatch int
	// StepsPerQuantum bounds the block steps one dispatch quantum scans
	// (default: all blocks, one quantum per batch). Smaller quanta
	// interleave batches and give rotations and crashes finer carry-over
	// points.
	StepsPerQuantum int
	// MaxInflight bounds concurrently dispatched batches (default: the
	// initial member count).
	MaxInflight int
	// QueueCap is the default per-tenant ingress bound (default 256).
	QueueCap int
	// Tenants declares the client tenants (at least one, unique names).
	Tenants []TenantConfig
	// Cost is the cluster cost model.
	Cost cluster.CostModel
	// Trace enables event tracing on the machine(s).
	Trace bool
	// Faults[i] is the fault plan injected into machine incarnation i
	// (crash times are on the incarnation's local clock).
	Faults []*cluster.FaultPlan
	// MaxRecoveries bounds machine rebuilds after crashes (default: the
	// universe size).
	MaxRecoveries int
	// Sink, when set, receives every completion in deterministic emission
	// order, and the server keeps none of them. It runs on the server's
	// delivery goroutine, beside the scheduler: it must not call the Server,
	// and what it writes is the caller's after Drain or Close returns.
	Sink func(Completion)
}

// Completion is one query's finished service record.
type Completion struct {
	// Tenant and Seq identify the query (Seq is the tenant's admission
	// sequence number, assigned in arrival order).
	Tenant string
	Seq    uint64
	// Batch is the batch the query was served in.
	Batch int32
	// QueryID is the spectrum identifier.
	QueryID string
	// ArriveSec and DoneSec bracket the virtual service interval.
	ArriveSec float64
	DoneSec   float64
	// Hits is the ranked top-τ list.
	Hits []topk.Hit
}

// Frame encodes the completion as a result frame.
func (c *Completion) Frame() *ResultFrame {
	return &ResultFrame{Tenant: c.Tenant, Seq: c.Seq, Batch: c.Batch, QueryID: c.QueryID,
		ArriveSec: c.ArriveSec, DoneSec: c.DoneSec, Hits: c.Hits}
}

// ServiceStats summarizes a service run.
type ServiceStats struct {
	Submitted     int64
	Admitted      int64
	RejectedQuota int64
	RejectedQueue int64
	Completed     int64
	Batches       int64
	Quanta        int64
	Rotations     int64
	Migrations    int64
	Crashes       int64
	Recoveries    int64
}

// batchRef is the scheduler's handle on one closed batch.
type batchRef struct {
	bs      *core.BatchState
	tenant  string
	pri     Priority
	entries []pending
	// readyAt is the absolute virtual time the batch's next quantum may
	// run (its dispatch instant, then the owner's clock after each
	// quantum).
	readyAt float64
}

// Server is one pepd instance. Its methods are host-side drivers for one
// goroutine at a time, the scheduler's; Submit times must be non-decreasing.
// A Server with a Sink also runs a delivery goroutine from New until Close
// or its first fatal error.
type Server struct {
	cfg      Config
	bk       *core.Backend
	mach     *cluster.Machine
	universe int
	members  []int
	dead     map[int]bool
	events   []cluster.MemberEvent
	eventIdx int

	timeBase    float64
	incarnation int
	vnow        float64
	lastSubmit  float64

	tenants map[string]*tenant
	names   []string

	ready    []*batchRef
	inflight []*batchRef
	nextID   int32

	comps  []Completion
	dl     *delivery
	atts   []*trace.Attempt
	stats  ServiceStats
	failed error
	closed bool
}

// New builds the server, boots the initial placement onto a fresh machine,
// and leaves the service idle at virtual time 0.
func New(cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("serve: at least one tenant required")
	}
	mp := cfg.Membership
	if mp == nil {
		ranks := cfg.Ranks
		if ranks < 1 {
			ranks = 4
		}
		mp = &cluster.MembershipPlan{Universe: ranks, Initial: ranks}
	}
	if err := mp.Validate(); err != nil {
		return nil, err
	}
	if w := cfg.BatchWindowSec; math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return nil, fmt.Errorf("serve: BatchWindowSec %v is not a finite, non-negative time", w)
	}
	s := &Server{
		cfg:      cfg,
		universe: mp.Universe,
		members:  mp.InitialMembers(),
		events:   mp.Events,
		dead:     map[int]bool{},
		tenants:  map[string]*tenant{},
	}
	if s.cfg.BatchWindowSec == 0 {
		s.cfg.BatchWindowSec = 0.05
	}
	if s.cfg.MaxBatch < 1 {
		s.cfg.MaxBatch = 16
	}
	if s.cfg.MaxInflight < 1 {
		s.cfg.MaxInflight = len(s.members)
	}
	if s.cfg.QueueCap < 1 {
		s.cfg.QueueCap = 256
	}
	if s.cfg.MaxRecoveries < 1 {
		s.cfg.MaxRecoveries = s.universe
	}
	if s.cfg.Blocks < 1 {
		s.cfg.Blocks = len(s.members)
	}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("serve: tenant with empty name")
		}
		if _, dup := s.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate tenant %q", tc.Name)
		}
		for _, f := range [...]struct {
			name string
			v    float64
		}{{"Weight", tc.Weight}, {"QuotaPerSec", tc.QuotaPerSec}, {"Burst", tc.Burst}} {
			if math.IsNaN(f.v) {
				return nil, fmt.Errorf("serve: tenant %q: %s is NaN", tc.Name, f.name)
			}
		}
		s.tenants[tc.Name] = newTenant(tc, s.cfg.QueueCap)
		s.names = append(s.names, tc.Name)
	}
	sort.Strings(s.names)

	bk, err := core.NewBackend(cfg.DB, cfg.Opt, s.cfg.Blocks)
	if err != nil {
		return nil, err
	}
	s.bk = bk
	if err := s.buildMachine(); err != nil {
		return nil, err
	}
	if err := s.boot(); err != nil {
		return nil, err
	}
	if cfg.Sink != nil {
		s.dl = startDelivery(cfg.Sink, s.cfg.MaxInflight)
	}
	return s, nil
}

// buildMachine creates machine incarnation s.incarnation.
func (s *Server) buildMachine() error {
	c := cluster.Config{Ranks: s.universe, Cost: s.cfg.Cost, Trace: s.cfg.Trace}
	if s.incarnation < len(s.cfg.Faults) {
		c.Fault = s.cfg.Faults[s.incarnation]
	}
	mach, err := cluster.New(c)
	if err != nil {
		return err
	}
	s.mach = mach
	return nil
}

// boot loads the current members' blocks onto the current machine,
// recovering (rebuild + re-boot on survivors) if the boot itself crashes.
func (s *Server) boot() error {
	for {
		rep, err := s.bk.Boot(s.mach, s.members)
		if err != nil {
			return err
		}
		if rep.OK() {
			return nil
		}
		if !rep.Recoverable() {
			return rep.Err
		}
		if err := s.onCrash(rep); err != nil {
			return err
		}
	}
}

// retireMachine snapshots the machine's trace attempt and folds its clock
// span into the absolute time base.
func (s *Server) retireMachine(label string) {
	if att := s.mach.Trace(label); att != nil {
		s.atts = append(s.atts, att)
	}
	s.timeBase += s.mach.MaxTime()
}

// onCrash handles a recoverable machine loss: retire the incarnation, mark
// the dead ranks, rebuild on the survivors, and re-stage every in-flight
// batch whose owner died from its last checkpoint on a surviving rank.
// Surviving owners keep their in-memory batch state — on a real cluster a
// peer's crash does not erase a healthy rank's memory.
func (s *Server) onCrash(rep *cluster.RunReport) error {
	s.stats.Crashes += int64(len(rep.FailedRanks))
	s.stats.Recoveries++
	if s.stats.Recoveries > int64(s.cfg.MaxRecoveries) {
		return s.fail(fmt.Errorf("serve: giving up after %d recoveries: %w", s.cfg.MaxRecoveries, rep.Err))
	}
	for _, f := range rep.FailedRanks {
		s.dead[f] = true
	}
	s.retireMachine(fmt.Sprintf("incarnation %d: pepd p=%d (crashed)", s.incarnation, len(s.members)))
	s.members = slices.DeleteFunc(s.members, func(id int) bool { return s.dead[id] })
	if len(s.members) == 0 {
		return s.fail(fmt.Errorf("serve: all ranks failed"))
	}
	s.incarnation++
	if err := s.buildMachine(); err != nil {
		return s.fail(err)
	}
	// The replacement machine has no windows: reload the survivors'
	// blocks before any batch resumes.
	brep, err := s.bk.Boot(s.mach, s.members)
	if err != nil {
		return s.fail(err)
	}
	if !brep.OK() {
		if !brep.Recoverable() {
			return s.fail(brep.Err)
		}
		return s.onCrash(brep)
	}
	for _, br := range s.inflight {
		if br.bs.Done() || !s.dead[br.bs.Owner()] {
			continue
		}
		s.bk.Invalidate(br.bs)
		br.bs.SetOwner(s.pickOwner())
		if br.readyAt < s.timeBase {
			br.readyAt = s.timeBase
		}
	}
	return nil
}

// fail poisons the server; every later call returns the first error. The
// delivery stage hands the Sink what was emitted before it and ends.
func (s *Server) fail(err error) error {
	if s.failed == nil {
		s.failed = err
		if s.dl != nil {
			s.dl.stop()
		}
	}
	return s.failed
}

// poisoned returns the server's fatal error, a Sink panic included.
func (s *Server) poisoned() error {
	if s.failed == nil && s.dl != nil {
		if err := s.dl.failed(); err != nil {
			s.fail(err)
		}
	}
	return s.failed
}

// Submit offers one query spectrum for tenant at virtual time at (non-
// decreasing across calls). It returns nil on admission, a typed
// *QuotaError or *QueueFullError rejection under backpressure, a typed
// *InvalidSubmitError, *OutOfOrderError or *UnknownTenantError for a submit
// that can never be admitted, or the service's fatal error. Admission never blocks: the scan loop runs only
// inside the event-time advance, and a rejected submit changes no state.
func (s *Server) Submit(at float64, tenantName string, spec *spectrum.Spectrum) error {
	if err := s.poisoned(); err != nil {
		return err
	}
	if s.closed {
		return errClosed
	}
	if spec == nil {
		return fmt.Errorf("serve: nil spectrum")
	}
	if !finite(at) {
		return &InvalidSubmitError{AtSec: at, Reason: "the arrival time is not finite"}
	}
	if err := spec.Check(); err != nil {
		return &InvalidSubmitError{AtSec: at, Reason: err.Error()}
	}
	if at < s.lastSubmit {
		return &OutOfOrderError{AtSec: at, LastSec: s.lastSubmit}
	}
	tn := s.tenants[tenantName]
	if tn == nil {
		return &UnknownTenantError{Tenant: tenantName}
	}
	s.lastSubmit = at
	s.advanceTo(at)
	if s.failed != nil {
		return s.failed
	}
	tn.stats.Submitted++
	s.stats.Submitted++
	// Queue bound first (stateless check), then the quota draw, so a
	// rejected submit never burns a token.
	if tn.queued >= tn.cap {
		tn.stats.RejectedQueue++
		s.stats.RejectedQueue++
		return &QueueFullError{Tenant: tenantName, RetryAfterSec: s.retryAfter(at)}
	}
	if q := tn.cfg.QuotaPerSec; q == 0 {
		tn.stats.RejectedQuota++
		s.stats.RejectedQuota++
		return &QuotaError{Tenant: tenantName, RetryAfterSec: math.Inf(1)}
	} else if q > 0 {
		tn.refill(at)
		if tn.tokens < 1 {
			tn.stats.RejectedQuota++
			s.stats.RejectedQuota++
			return &QuotaError{Tenant: tenantName, RetryAfterSec: (1 - tn.tokens) / q}
		}
		tn.tokens--
	}
	tn.push(pending{seq: tn.seq, at: at, spec: spec})
	tn.seq++
	tn.stats.Admitted++
	s.stats.Admitted++
	if tn.n >= s.cfg.MaxBatch || tn.effWindow(s.cfg.BatchWindowSec) == 0 {
		s.closeBatch(tn)
		s.advanceTo(at)
	}
	return s.failed
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

var errClosed = errors.New("serve: Submit after Close")

// SubmitFrame decodes a submission frame and submits it (the frame's AtSec
// is the arrival instant; its Seq is advisory — completions carry the
// tenant's admission sequence).
func (s *Server) SubmitFrame(frame []byte) error {
	if err := s.poisoned(); err != nil {
		return err
	}
	f, err := DecodeSubmit(frame)
	if err != nil {
		return err
	}
	return s.Submit(f.AtSec, f.Tenant, f.Spec)
}

// Drain advances virtual time until every admitted query has completed
// (and every scheduled rotation at or before that point has fired). It
// returns once every completion emitted so far has returned from the Sink.
func (s *Server) Drain() error {
	for s.poisoned() == nil {
		t := s.next()
		if math.IsInf(t, 1) {
			break
		}
		s.advanceTo(t)
	}
	if s.failed == nil && s.dl != nil {
		if err := s.dl.flush(); err != nil {
			s.fail(err)
		}
	}
	return s.failed
}

// Close drains the service, ends the delivery goroutine and retires the
// final machine incarnation. The server is unusable afterwards except for
// accessors.
func (s *Server) Close() error {
	if s.closed {
		return s.failed
	}
	s.Drain()
	if s.dl != nil {
		s.dl.stop()
	}
	s.retireMachine(fmt.Sprintf("incarnation %d: pepd p=%d", s.incarnation, len(s.members)))
	s.closed = true
	return s.failed
}

// Completions returns every emitted completion in deterministic emission
// order. A server with a Sink keeps none: the Sink has received them.
func (s *Server) Completions() []Completion { return s.comps }

// Metrics returns the service counters so far.
func (s *Server) Metrics() ServiceStats { return s.stats }

// Members returns the current member ranks.
func (s *Server) Members() []int { return append([]int(nil), s.members...) }

// NowSec returns the event loop's current virtual time.
func (s *Server) NowSec() float64 { return s.vnow }

// CheckpointWrites and CheckpointBytes report carry-over store traffic.
func (s *Server) CheckpointWrites() int64 { return s.bk.CheckpointWrites() }

// CheckpointBytes is the byte counter companion of CheckpointWrites.
func (s *Server) CheckpointBytes() int64 { return s.bk.CheckpointBytes() }

// MigrationBytes reports rotation block traffic.
func (s *Server) MigrationBytes() int64 { return s.bk.MigrationBytes() }

// Trace returns the service's trace (one attempt per machine incarnation),
// or nil when tracing was disabled. Call after Close.
func (s *Server) Trace() *trace.Trace {
	if len(s.atts) == 0 {
		return nil
	}
	return &trace.Trace{Attempts: s.atts}
}

// retryAfter hints when service capacity next frees: the earliest in-flight
// quantum boundary, else one batching window.
func (s *Server) retryAfter(at float64) float64 {
	after := s.cfg.BatchWindowSec
	for _, br := range s.inflight {
		if d := br.readyAt - at; d > 0 && d < after {
			after = d
		}
	}
	if after <= 0 {
		after = s.cfg.BatchWindowSec
	}
	return after
}

// next returns the earliest pending event time (+Inf when idle): the next
// rotation, batch-close deadline, dispatch opportunity, or quantum.
func (s *Server) next() float64 {
	t := math.Inf(1)
	if s.eventIdx < len(s.events) {
		t = math.Min(t, s.events[s.eventIdx].TimeSec)
	}
	for _, name := range s.names {
		tn := s.tenants[name]
		if tn.n > 0 {
			t = math.Min(t, tn.headAt()+tn.effWindow(s.cfg.BatchWindowSec))
		}
	}
	if len(s.ready) > 0 && len(s.inflight) < s.cfg.MaxInflight {
		t = math.Min(t, s.vnow)
	}
	for _, br := range s.inflight {
		t = math.Min(t, br.readyAt)
	}
	return t
}

// advanceTo fires every event due at or before t, in time order, then
// parks the loop at t.
func (s *Server) advanceTo(t float64) {
	for s.failed == nil {
		nx := s.next()
		if nx > t || math.IsInf(nx, 1) {
			break
		}
		if nx > s.vnow {
			s.vnow = nx
		}
		s.step()
	}
	if t > s.vnow {
		s.vnow = t
	}
}

// step fires everything due at the current virtual instant: rotations,
// deadline closes, dispatches, then due quanta.
func (s *Server) step() {
	for s.eventIdx < len(s.events) && s.events[s.eventIdx].TimeSec <= s.vnow {
		ev := s.events[s.eventIdx]
		s.eventIdx++
		s.rotate(ev)
		if s.failed != nil {
			return
		}
	}
	for _, name := range s.names {
		tn := s.tenants[name]
		for tn.n > 0 && tn.headAt()+tn.effWindow(s.cfg.BatchWindowSec) <= s.vnow {
			s.closeBatch(tn)
		}
	}
	s.pump()
	s.runDue()
}

// closeBatch closes the tenant's forming batch: up to MaxBatch oldest
// queries leave the ring as one BatchQuery set awaiting dispatch.
func (s *Server) closeBatch(tn *tenant) {
	k := tn.n
	if k > s.cfg.MaxBatch {
		k = s.cfg.MaxBatch
	}
	if k == 0 {
		return
	}
	entries := make([]pending, k)
	specs := make([]*spectrum.Spectrum, k)
	for i := 0; i < k; i++ {
		entries[i] = tn.pop()
		specs[i] = entries[i].spec
	}
	br := &batchRef{bs: core.NewBatch(s.nextID, specs), tenant: tn.cfg.Name, pri: tn.cfg.Priority, entries: entries}
	s.nextID++
	s.stats.Batches++
	s.ready = append(s.ready, br)
}

// pump dispatches ready batches while in-flight capacity remains: priority
// lanes first, then lowest WFQ credit, then tenant name, then batch id.
func (s *Server) pump() {
	for len(s.ready) > 0 && len(s.inflight) < s.cfg.MaxInflight {
		best := 0
		for i := 1; i < len(s.ready); i++ {
			if s.dispatchBefore(s.ready[i], s.ready[best]) {
				best = i
			}
		}
		br := s.ready[best]
		s.ready = append(s.ready[:best], s.ready[best+1:]...)
		tn := s.tenants[br.tenant]
		// Advance the tenant's WFQ credit from the dispatch instant's
		// floor (idle tenants bank no credit: the floor is the minimum
		// credit among tenants with work, so a returning tenant competes
		// from "now", not from the distant past).
		floor := tn.credit
		for _, name := range s.names {
			o := s.tenants[name]
			if o != tn && (o.n > 0 || s.tenantHasReady(name)) && o.credit < floor {
				floor = o.credit
			}
		}
		if tn.credit < floor {
			tn.credit = floor
		}
		tn.credit += float64(br.bs.Size()) / tn.weight
		tn.queued -= br.bs.Size()
		br.bs.SetOwner(s.pickOwner())
		br.readyAt = s.vnow
		s.inflight = append(s.inflight, br)
	}
}

// tenantHasReady reports whether the tenant has a closed batch awaiting
// dispatch.
func (s *Server) tenantHasReady(name string) bool {
	for _, br := range s.ready {
		if br.tenant == name {
			return true
		}
	}
	return false
}

// dispatchBefore is the strict dispatch order on ready batches.
func (s *Server) dispatchBefore(a, b *batchRef) bool {
	if a.pri != b.pri {
		return a.pri > b.pri
	}
	ca, cb := s.tenants[a.tenant].credit, s.tenants[b.tenant].credit
	if ca != cb {
		return ca < cb
	}
	if a.tenant != b.tenant {
		return a.tenant < b.tenant
	}
	return a.bs.ID() < b.bs.ID()
}

// pickOwner assigns the member rank driving the fewest in-flight batches
// (ties to the lowest rank id).
func (s *Server) pickOwner() int {
	best, bestLoad := s.members[0], math.MaxInt32
	for _, m := range s.members {
		load := 0
		for _, br := range s.inflight {
			if br.bs.Owner() == m {
				load++
			}
		}
		if load < bestLoad {
			best, bestLoad = m, load
		}
	}
	return best
}

// runDue advances every in-flight batch whose quantum is due, in
// (readyAt, batch id) order.
func (s *Server) runDue() {
	for s.failed == nil {
		var due *batchRef
		for _, br := range s.inflight {
			if br.readyAt > s.vnow {
				continue
			}
			if due == nil || br.readyAt < due.readyAt || (br.readyAt == due.readyAt && br.bs.ID() < due.bs.ID()) {
				due = br
			}
		}
		if due == nil {
			return
		}
		s.runQuantum(due)
	}
}

// runQuantum advances one due batch. A batch that already swept every
// block emits its completions and frees its capacity slot — its readyAt was
// re-armed to the virtual completion instant, so the slot stays occupied
// for the batch's whole service interval and a higher-priority batch can
// claim it the moment it frees, never later. Otherwise one ScanBatch
// quantum runs and readyAt re-arms at the owner's post-quantum clock.
func (s *Server) runQuantum(br *batchRef) {
	if br.bs.Done() {
		s.finish(br)
		return
	}
	dispatchAt := br.readyAt - s.timeBase
	if dispatchAt < 0 {
		dispatchAt = 0
	}
	rep, err := s.bk.ScanBatch(s.mach, br.bs, dispatchAt, s.cfg.StepsPerQuantum)
	if err != nil {
		s.fail(err)
		return
	}
	if !rep.OK() {
		if !rep.Recoverable() {
			s.fail(rep.Err)
			return
		}
		if s.onCrash(rep) != nil {
			return
		}
		// The interrupted quantum re-runs at its original instant on the
		// next machine (batch state is consistent at a block boundary).
		return
	}
	s.stats.Quanta++
	if br.bs.Done() {
		br.readyAt = s.timeBase + br.bs.DoneClock()
	} else {
		br.readyAt = s.timeBase + s.mach.Rank(br.bs.Owner()).Time()
	}
}

// finish emits a done batch's completions, to Completions or as one
// hand-off to the delivery stage, and releases its slot.
func (s *Server) finish(br *batchRef) {
	doneAbs := br.readyAt
	tn := s.tenants[br.tenant]
	results := br.bs.Results()
	out := s.comps
	if s.dl != nil {
		out = make([]Completion, 0, len(results))
	}
	for i, qr := range results {
		out = append(out, Completion{
			Tenant:    br.tenant,
			Seq:       br.entries[i].seq,
			Batch:     br.bs.ID(),
			QueryID:   qr.ID,
			ArriveSec: br.entries[i].at,
			DoneSec:   doneAbs,
			Hits:      qr.Hits,
		})
		tn.stats.Completed++
		s.stats.Completed++
	}
	if s.dl != nil {
		s.dl.send(out)
	} else {
		s.comps = out
	}
	for i, fl := range s.inflight {
		if fl == br {
			s.inflight = append(s.inflight[:i], s.inflight[i+1:]...)
			break
		}
	}
}

// rotate applies one membership event on the live machine: dead ranks
// cannot join, the last member cannot leave, blocks migrate to the new
// placement, and in-flight batches owned by leavers re-stage from their
// checkpoints on a remaining member.
func (s *Server) rotate(ev cluster.MemberEvent) {
	newMembers := ev.Apply(s.members, s.dead)
	if slices.Equal(newMembers, s.members) {
		return
	}
	rep, migs, err := s.bk.Rotate(s.mach, newMembers)
	if err != nil {
		s.fail(err)
		return
	}
	if rep != nil && !rep.OK() {
		if !rep.Recoverable() {
			s.fail(rep.Err)
			return
		}
		if s.onCrash(rep) != nil {
			return
		}
		// The crash interrupted the migration; the rebuilt machine booted
		// the post-rotation placement on the survivors, so the rotation
		// itself is complete.
	}
	s.members = s.bk.Members()
	s.stats.Rotations++
	s.stats.Migrations += int64(len(migs))
	for _, br := range s.inflight {
		if br.bs.Done() {
			continue
		}
		if _, member := slices.BinarySearch(s.members, br.bs.Owner()); !member {
			s.bk.Invalidate(br.bs)
			br.bs.SetOwner(s.pickOwner())
		}
	}
}
