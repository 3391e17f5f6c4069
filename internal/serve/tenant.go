package serve

import (
	"fmt"
	"math"

	"pepscale/internal/spectrum"
)

// Priority selects a tenant's scheduling lane.
type Priority uint8

const (
	// PriorityBatch is the default throughput lane: queries aggregate over
	// the batching window and dispatch under weighted fair queuing.
	PriorityBatch Priority = iota
	// PriorityInteractive is the latency lane: an arrival preempts batch
	// formation (its batch closes immediately) and closed interactive
	// batches dispatch ahead of every batch-lane batch.
	PriorityInteractive
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	if p == PriorityInteractive {
		return "interactive"
	}
	return "batch"
}

// TenantConfig declares one client tenant of the service.
type TenantConfig struct {
	// Name identifies the tenant (unique, required).
	Name string
	// Weight is the tenant's weighted-fair-queuing share (default 1): a
	// weight-2 tenant gets twice the dispatch bandwidth of a weight-1
	// tenant under contention.
	Weight float64
	// QuotaPerSec is the admission rate limit in queries per virtual
	// second, enforced by a token bucket on the arrival clock. Negative
	// disables the quota; zero admits nothing (every submit is rejected
	// with an infinite retry-after — the graceful-starvation contract).
	QuotaPerSec float64
	// Burst is the token-bucket depth (default max(1, QuotaPerSec)).
	Burst float64
	// Priority selects the scheduling lane.
	Priority Priority
	// QueueCap bounds the tenant's admitted-but-undispatched queries —
	// the ingress analogue of the cluster's MailboxDepth: a full queue
	// rejects with a typed retry-after instead of growing without bound.
	// 0 uses the server default.
	QueueCap int
}

// QuotaError is the typed rejection for an over-quota submit. RetryAfterSec
// is the virtual time until the token bucket readmits (infinite for a
// zero-quota tenant).
type QuotaError struct {
	Tenant        string
	RetryAfterSec float64
}

// Error implements error.
func (e *QuotaError) Error() string {
	if math.IsInf(e.RetryAfterSec, 1) {
		return fmt.Sprintf("serve: tenant %q over quota (zero quota; no retry)", e.Tenant)
	}
	return fmt.Sprintf("serve: tenant %q over quota (retry after %.3fs)", e.Tenant, e.RetryAfterSec)
}

// QueueFullError is the typed rejection for a full ingress queue.
// RetryAfterSec hints when service capacity next frees.
type QueueFullError struct {
	Tenant        string
	RetryAfterSec float64
}

// Error implements error.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: tenant %q ingress queue full (retry after %.3fs)", e.Tenant, e.RetryAfterSec)
}

// UnknownTenantError rejects a submit for an undeclared tenant.
type UnknownTenantError struct{ Tenant string }

// Error implements error.
func (e *UnknownTenantError) Error() string {
	return fmt.Sprintf("serve: unknown tenant %q", e.Tenant)
}

// OutOfOrderError rejects a submit whose arrival time precedes an earlier
// submit: the service runs on virtual time, so the arrival schedule must be
// non-decreasing for the run to be replayable.
type OutOfOrderError struct{ AtSec, LastSec float64 }

// Error implements error.
func (e *OutOfOrderError) Error() string {
	return fmt.Sprintf("serve: out-of-order submit at %.6fs (last %.6fs)", e.AtSec, e.LastSec)
}

// InvalidSubmitError rejects a submit the service cannot schedule or search:
// a non-finite arrival time (the event loop would never reach, or never get
// past, it), a charge below 1, or a non-finite precursor m/z. Resubmitting
// the same query cannot succeed, so it is not retryable.
type InvalidSubmitError struct {
	AtSec       float64
	Charge      int
	PrecursorMZ float64
}

// Error implements error.
func (e *InvalidSubmitError) Error() string {
	return fmt.Sprintf("serve: invalid submit (at %vs, charge %d, precursor m/z %v): times and m/z must be finite, charge at least 1",
		e.AtSec, e.Charge, e.PrecursorMZ)
}

// IsRetryable reports whether err is a backpressure rejection (quota or
// queue) rather than a fatal service error, and returns its retry-after.
func IsRetryable(err error) (retryAfterSec float64, ok bool) {
	switch e := err.(type) {
	case *QuotaError:
		return e.RetryAfterSec, true
	case *QueueFullError:
		return e.RetryAfterSec, true
	}
	return 0, false
}

// TenantStats counts one tenant's admission outcomes.
type TenantStats struct {
	Submitted     int64
	Admitted      int64
	RejectedQuota int64
	RejectedQueue int64
	Completed     int64
}

// pending is one admitted query waiting in a tenant's ingress ring.
type pending struct {
	seq  uint64
	at   float64
	spec *spectrum.Spectrum
}

// tenant is the runtime state behind one TenantConfig. The server owns it;
// all access is from the single host-side event loop.
type tenant struct {
	cfg    TenantConfig
	weight float64
	burst  float64
	cap    int

	// ring is the formation queue (preallocated to cap so the steady-state
	// ingest path allocates nothing).
	ring []pending
	head int
	n    int
	// queued counts admitted-but-undispatched queries: ring entries plus
	// queries inside closed batches still waiting for dispatch. The
	// ingress bound applies to this total.
	queued int

	tokens     float64
	lastRefill float64
	// credit is the tenant's WFQ virtual-service tag: dispatching a batch
	// of n queries advances it by n/weight from the scheduler's virtual
	// clock, so light tenants never starve behind heavy ones.
	credit float64
	seq    uint64
	stats  TenantStats
}

func newTenant(cfg TenantConfig, defaultCap int) *tenant {
	t := &tenant{cfg: cfg, weight: cfg.Weight, burst: cfg.Burst, cap: cfg.QueueCap}
	if t.weight <= 0 {
		t.weight = 1
	}
	if t.cap <= 0 {
		t.cap = defaultCap
	}
	if t.burst <= 0 {
		t.burst = math.Max(1, cfg.QuotaPerSec)
	}
	t.ring = make([]pending, t.cap)
	t.tokens = t.burst
	return t
}

// refill advances the token bucket to virtual time at.
func (t *tenant) refill(at float64) {
	if t.cfg.QuotaPerSec > 0 {
		t.tokens = math.Min(t.burst, t.tokens+t.cfg.QuotaPerSec*(at-t.lastRefill))
	}
	t.lastRefill = at
}

// push appends an admitted query to the formation ring (caller checked the
// bound).
func (t *tenant) push(p pending) {
	t.ring[(t.head+t.n)%len(t.ring)] = p
	t.n++
	t.queued++
}

// pop removes the oldest forming query.
func (t *tenant) pop() pending {
	p := t.ring[t.head]
	t.ring[t.head] = pending{}
	t.head = (t.head + 1) % len(t.ring)
	t.n--
	return p
}

// headAt returns the arrival time of the oldest forming query.
func (t *tenant) headAt() float64 { return t.ring[t.head].at }

// effWindow is the tenant's batching window: interactive tenants close
// immediately (the lane preempts batch formation).
func (t *tenant) effWindow(windowSec float64) float64 {
	if t.cfg.Priority >= PriorityInteractive {
		return 0
	}
	return windowSec
}
