// Deterministic fault injection for the virtual machine.
//
// A FaultPlan is a seeded, fully reproducible schedule of failures: rank
// crashes (at a virtual time or at the Nth communication primitive), per-link
// message delays and one-sided-transfer drops, and straggler compute
// multipliers. The plan owns all randomness — every rank draws from its own
// explicitly seeded PRNG in program order — so a faulty run is exactly as
// deterministic as a clean one: same plan, same program, same virtual clocks,
// same failure points.
//
// Fault checks hook the entry of every communication primitive (Send, Recv,
// RecvAny, AwaitAdmission, Get, Wait, Expose, and each collective
// rendezvous); Compute applies the straggler multiplier. A crash marks the
// rank failed (see ErrRankFailed and Machine.RunWithReport) and ends its
// body. Survivors learn of it by dependency, not by broadcast: a parked
// primitive fails once the rank or ranks it waits on have ended — a Recv on
// its sender, a Wait on the window's owner, RecvAny on every other active
// rank, AwaitAdmission on its admitter once it has one (before that, on
// every other active rank), a collective round on the members that never
// arrive — with their least cause, the earliest failure by (virtual time,
// rank), after a detection timeout charged on the virtual clock. A rank's
// end is a fact of its own program order, so the primitive a survivor fails
// in, and the virtual time it fails at, do not depend on the host's
// schedule.
package cluster

import (
	"errors"
	"fmt"
	"math/rand"

	"pepscale/internal/trace"
)

// Link identifies a directed communication edge for per-link fault overrides.
// For one-sided gets, From is the window owner and To the issuing rank (the
// direction the data flows).
type Link struct {
	From, To int
}

// LinkFault configures the message-level faults of one link.
type LinkFault struct {
	// DelayProb is the probability that a message on this link is delayed
	// by DelaySec (charged as extra transfer latency at the receiver).
	DelayProb float64
	// DelaySec is the injected delay.
	DelaySec float64
	// DropProb is the probability that a one-sided transfer attempt on this
	// link is dropped; the issuer retries with exponential backoff (see
	// FaultPlan.MaxRetries) before declaring itself failed.
	DropProb float64
}

// FaultPlan is a deterministic fault schedule for one machine run. The zero
// value injects nothing; a nil plan disables the fault layer entirely.
type FaultPlan struct {
	// Seed seeds the per-rank PRNG streams (rank i draws from a source
	// derived from Seed and i, so streams are independent and reproducible).
	Seed int64
	// CrashAtCall crashes a rank at its Nth communication-primitive call
	// (1-based): rank → N.
	CrashAtCall map[int]int
	// CrashAtTime crashes a rank at its first primitive call at or after
	// virtual time T: rank → T.
	CrashAtTime map[int]float64
	// Straggler multiplies a rank's Compute durations: rank → factor (> 1
	// slows the rank down, emulating an overloaded node).
	Straggler map[int]float64
	// DelayProb/DelaySec/DropProb are the default link faults applied to
	// every link without an explicit Links override.
	DelayProb float64
	DelaySec  float64
	DropProb  float64
	// Links overrides the default link faults for specific edges.
	Links map[Link]LinkFault
	// DetectSec is the failure-detector timeout: a survivor observing a
	// crash advances its clock to at least crashTime+DetectSec (accounted
	// as synchronization wait), modelling heartbeat-based detection.
	DetectSec float64
	// MaxRetries bounds one-sided transfer reissues after injected drops
	// (default 4). Exhausting the budget fails the issuing rank.
	MaxRetries int
	// RetryBackoffSec is the base backoff charged before the k-th reissue
	// (doubling per attempt). 0 defaults to 4× the model latency.
	RetryBackoffSec float64
	// RetryJitterFrac adds bounded deterministic jitter to each retry
	// backoff: the charged backoff is scaled by (1 + u·RetryJitterFrac)
	// with u drawn uniformly from [0,1) out of the issuing rank's seeded
	// stream, de-synchronizing retry storms the way production exponential
	// backoff does. Must lie in [0,1]; 0 (the default) disables the draw
	// entirely, so existing plans keep their exact PRNG streams and charged
	// times.
	RetryJitterFrac float64
}

// Validate reports configuration errors for a machine with p ranks.
func (fp *FaultPlan) Validate(p int) error {
	if fp == nil {
		return nil
	}
	//pepvet:allow determinism order-independent reduction: any out-of-range key yields the same fixed error, so iteration order cannot escape
	for rank := range fp.CrashAtCall {
		if rank < 0 || rank >= p {
			return fmt.Errorf("cluster: FaultPlan.CrashAtCall rank out of range [0,%d)", p)
		}
	}
	//pepvet:allow determinism order-independent reduction: any out-of-range key yields the same fixed error, so iteration order cannot escape
	for rank := range fp.CrashAtTime {
		if rank < 0 || rank >= p {
			return fmt.Errorf("cluster: FaultPlan.CrashAtTime rank out of range [0,%d)", p)
		}
	}
	//pepvet:allow determinism order-independent reduction: any invalid entry yields the same fixed error, so iteration order cannot escape
	for rank := range fp.Straggler {
		if rank < 0 || rank >= p {
			return fmt.Errorf("cluster: FaultPlan.Straggler rank out of range [0,%d)", p)
		}
		if fp.Straggler[rank] <= 0 {
			return errors.New("cluster: FaultPlan.Straggler factors must be positive")
		}
	}
	for _, pr := range []float64{fp.DelayProb, fp.DropProb} {
		if pr < 0 || pr > 1 {
			return fmt.Errorf("cluster: FaultPlan probability %v outside [0,1]", pr)
		}
	}
	if fp.RetryJitterFrac < 0 || fp.RetryJitterFrac > 1 {
		return fmt.Errorf("cluster: FaultPlan.RetryJitterFrac %v outside [0,1]", fp.RetryJitterFrac)
	}
	//pepvet:allow determinism order-independent reduction: every invalid entry yields the same fixed error, so iteration order cannot escape
	for _, lf := range fp.Links {
		if lf.DelayProb < 0 || lf.DelayProb > 1 || lf.DropProb < 0 || lf.DropProb > 1 || lf.DelaySec < 0 {
			return errors.New("cluster: FaultPlan.Links entry invalid (probabilities in [0,1], durations non-negative)")
		}
	}
	if fp.DelaySec < 0 || fp.DetectSec < 0 || fp.RetryBackoffSec < 0 {
		return errors.New("cluster: FaultPlan durations must be non-negative")
	}
	if fp.MaxRetries < 0 {
		return errors.New("cluster: FaultPlan.MaxRetries must be non-negative")
	}
	return nil
}

// linkFor resolves the effective link faults for the directed edge from→to.
func (fp *FaultPlan) linkFor(from, to int) LinkFault {
	if lf, ok := fp.Links[Link{From: from, To: to}]; ok {
		return lf
	}
	return LinkFault{DelayProb: fp.DelayProb, DelaySec: fp.DelaySec, DropProb: fp.DropProb}
}

// maxRetries returns the transfer reissue budget.
func (fp *FaultPlan) maxRetries() int {
	if fp.MaxRetries > 0 {
		return fp.MaxRetries
	}
	return 4
}

// retryBackoffSec returns the base backoff before the first reissue.
func (fp *FaultPlan) retryBackoffSec(cost CostModel) float64 {
	if fp.RetryBackoffSec > 0 {
		return fp.RetryBackoffSec
	}
	return 4 * cost.LatencySec
}

// faultState is the machine-owned runtime state of a plan: one PRNG stream
// and primitive-call counter per rank, touched only by that rank's goroutine.
type faultState struct {
	plan  *FaultPlan
	ranks []rankFaultState
}

type rankFaultState struct {
	rng   *rand.Rand
	calls int
}

func newFaultState(plan *FaultPlan, p int) *faultState {
	if plan == nil {
		return nil
	}
	fs := &faultState{plan: plan, ranks: make([]rankFaultState, p)}
	for i := range fs.ranks {
		fs.ranks[i].rng = rand.New(rand.NewSource(plan.Seed*1000003 + int64(i)*2654435761 + 1))
	}
	return fs
}

// faultPoint runs the crash checks at the entry of a communication
// primitive. It panics (crashPanic) when the rank's scheduled failure fires;
// the panic is recovered by Run and recorded as the rank's failure.
func (r *Rank) faultPoint() {
	f := r.m.fault
	if f == nil {
		return
	}
	st := &f.ranks[r.id]
	st.calls++
	if n, ok := f.plan.CrashAtCall[r.id]; ok && st.calls >= n {
		r.crash(fmt.Errorf("fault injection: crash at primitive call %d", st.calls))
	}
	if t, ok := f.plan.CrashAtTime[r.id]; ok && r.clock >= t {
		r.crash(fmt.Errorf("fault injection: crash at virtual time %.6g (scheduled %.6g)", r.clock, t))
	}
}

// crash marks this rank failed and unwinds it.
func (r *Rank) crash(reason error) {
	err := ErrRankFailed{Rank: r.id, Cause: reason}
	r.charge(r.clock, trace.Event{Kind: trace.KindCrash, Name: "crash", Peer: -1, Start: r.clock, Note: reason.Error()})
	r.m.failRank(r.id, err, r.clock)
	panic(crashPanic{err: err, c: cause{rank: r.id, t: r.clock, failed: true}})
}

// stragglerFactor returns this rank's compute multiplier (1 when unset).
func (r *Rank) stragglerFactor() float64 {
	if f := r.m.fault; f != nil {
		if mult, ok := f.plan.Straggler[r.id]; ok && mult > 0 {
			return mult
		}
	}
	return 1
}

// injectSendDelay draws the injected delay for a message to rank `to`
// (0 when the link is clean). The draw consumes the sender's PRNG stream
// only when the link actually has a delay configured, so clean plans and
// nil plans produce identical streams.
func (r *Rank) injectSendDelay(to int) float64 {
	f := r.m.fault
	if f == nil {
		return 0
	}
	lf := f.plan.linkFor(r.id, to)
	if lf.DelayProb <= 0 || lf.DelaySec <= 0 {
		return 0
	}
	if f.ranks[r.id].rng.Float64() >= lf.DelayProb {
		return 0
	}
	return lf.DelaySec
}

// retryJitter draws the multiplicative jitter factor for one retry backoff.
// The draw consumes the issuing rank's PRNG stream only when jitter is
// configured, so plans without it keep their historical streams and charged
// virtual times bit-for-bit.
func (r *Rank) retryJitter() float64 {
	f := r.m.fault
	if f == nil || f.plan.RetryJitterFrac <= 0 {
		return 1
	}
	return 1 + f.plan.RetryJitterFrac*f.ranks[r.id].rng.Float64()
}

// dropTransfer draws whether one attempt of a one-sided transfer from owner
// is dropped. The issuing rank draws (it owns the Wait).
func (r *Rank) dropTransfer(owner int) bool {
	f := r.m.fault
	if f == nil {
		return false
	}
	lf := f.plan.linkFor(owner, r.id)
	if lf.DropProb <= 0 {
		return false
	}
	return f.ranks[r.id].rng.Float64() < lf.DropProb
}

// ErrRankFailed reports a rank failure. The failed rank records it with the
// crash cause; survivors interrupted by the failure observe it (from blocked
// collectives, receives, and waits) with Cause nil and Rank naming the rank
// the failure started on. Match with errors.As.
type ErrRankFailed struct {
	// Rank is the failed rank.
	Rank int
	// Cause is the failure's origin on the failed rank itself (injected
	// crash, exhausted transfer retries); nil on survivor observations.
	Cause error
}

// Error implements error.
func (e ErrRankFailed) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("cluster: rank %d failed: %v", e.Rank, e.Cause)
	}
	return fmt.Sprintf("cluster: rank %d failed", e.Rank)
}

// Unwrap exposes the crash cause.
func (e ErrRankFailed) Unwrap() error { return e.Cause }

// ErrNoWindow marks a one-sided get whose target finished its rank body
// without ever exposing the requested window — a program error, as opposed
// to an exposure that is merely still in flight (which Wait blocks for).
var ErrNoWindow = errors.New("cluster: window was never exposed")

// TransferError reports a one-sided transfer abandoned after exhausting its
// retry budget against injected drops. The issuing rank is marked failed.
type TransferError struct {
	// Owner is the window owner the transfer was fetching from.
	Owner int
	// Window is the window name.
	Window string
	// Attempts is the number of transfer attempts made.
	Attempts int
}

// Error implements error.
func (e TransferError) Error() string {
	return fmt.Sprintf("cluster: get of window %q from rank %d failed after %d attempts", e.Window, e.Owner, e.Attempts)
}

// ErrPeerFinished marks a receive or a collective whose peer finished its
// rank body without sending the awaited message or arriving — a program
// error, fatal for the run, as opposed to a peer that failed (ErrRankFailed).
var ErrPeerFinished = errors.New("cluster: peer finished without sending or arriving")

// crashPanic unwinds a rank at its own injected failure point.
type crashPanic struct {
	err error
	c   cause
}

// failPanic unwinds a survivor interrupted by a peer failure.
type failPanic struct{ c cause }
