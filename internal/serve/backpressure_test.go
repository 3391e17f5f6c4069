package serve

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"pepscale/internal/spectrum"
)

// TestQueueFullRetryAfter: a full ingress queue rejects with a typed
// retry-after and consumes nothing — no token, no queue slot, no batch.
func TestQueueFullRetryAfter(t *testing.T) {
	db, pool := testWorkload(t, 40, 4)
	cfg := steadyCfg(db)
	cfg.BatchWindowSec = 1e6 // nothing drains during the test
	cfg.MaxBatch = 1 << 20
	cfg.Tenants = []TenantConfig{{Name: "acme", QuotaPerSec: -1, QueueCap: 2}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Submit(0, "acme", pool[0]); err != nil {
			t.Fatalf("submit %d under cap: %v", i, err)
		}
	}
	err = s.Submit(0, "acme", pool[0])
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("over-cap submit returned %v, want *QueueFullError", err)
	}
	if qf.RetryAfterSec <= 0 {
		t.Errorf("retry-after %v, want > 0", qf.RetryAfterSec)
	}
	if after, ok := IsRetryable(err); !ok || after != qf.RetryAfterSec {
		t.Errorf("IsRetryable = (%v,%v), want (%v,true)", after, ok, qf.RetryAfterSec)
	}
	st := s.Metrics()
	if st.Admitted != 2 || st.RejectedQueue != 1 {
		t.Errorf("counters %+v, want 2 admitted / 1 queue-rejected", st)
	}
	ts, _ := s.TenantMetrics("acme")
	if ts.RejectedQueue != 1 {
		t.Errorf("tenant counters %+v", ts)
	}
}

// TestZeroQuotaStarvesGracefully: a zero-quota tenant is rejected on every
// submit (infinite retry-after) while other tenants keep being served.
func TestZeroQuotaStarvesGracefully(t *testing.T) {
	db, pool := testWorkload(t, 40, 4)
	cfg := steadyCfg(db)
	cfg.Tenants = []TenantConfig{
		{Name: "acme", QuotaPerSec: -1},
		{Name: "none", QuotaPerSec: 0},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		at := float64(i) * 0.01
		err := s.Submit(at, "none", pool[i])
		var qe *QuotaError
		if !errors.As(err, &qe) {
			t.Fatalf("zero-quota submit returned %v, want *QuotaError", err)
		}
		if !math.IsInf(qe.RetryAfterSec, 1) {
			t.Errorf("zero-quota retry-after %v, want +Inf", qe.RetryAfterSec)
		}
		if err := s.Submit(at, "acme", pool[i]); err != nil {
			t.Fatalf("healthy tenant rejected alongside starved one: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Metrics()
	if st.RejectedQuota != 3 || st.Admitted != 3 || st.Completed != 3 {
		t.Errorf("counters %+v, want 3 quota-rejected / 3 admitted / 3 completed", st)
	}
}

// TestQuotaRefills: the token bucket readmits after its retry-after hint.
func TestQuotaRefills(t *testing.T) {
	db, pool := testWorkload(t, 40, 4)
	cfg := steadyCfg(db)
	cfg.Tenants = []TenantConfig{{Name: "acme", QuotaPerSec: 10, Burst: 1}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(0, "acme", pool[0]); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	err = s.Submit(0.01, "acme", pool[1])
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("burst-exhausted submit returned %v, want *QuotaError", err)
	}
	if qe.RetryAfterSec <= 0 || math.IsInf(qe.RetryAfterSec, 1) {
		t.Fatalf("retry-after %v, want finite positive", qe.RetryAfterSec)
	}
	// A hair past the hint: the hint itself can land a rounding ulp short
	// of a whole token.
	if err := s.Submit(0.01+qe.RetryAfterSec+1e-9, "acme", pool[1]); err != nil {
		t.Fatalf("submit after hinted retry-after still rejected: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Completed; got != 2 {
		t.Errorf("completed %d, want 2", got)
	}
}

// TestUnknownAndOutOfOrder: the remaining typed submit errors, which are
// not retryable backpressure.
func TestUnknownAndOutOfOrder(t *testing.T) {
	db, pool := testWorkload(t, 40, 4)
	s, err := New(steadyCfg(db))
	if err != nil {
		t.Fatal(err)
	}
	var ut *UnknownTenantError
	if err := s.Submit(0, "ghost", pool[0]); !errors.As(err, &ut) {
		t.Errorf("unknown tenant returned %v", err)
	}
	if err := s.Submit(1, "acme", pool[0]); err != nil {
		t.Fatal(err)
	}
	var oo *OutOfOrderError
	if err := s.Submit(0.5, "acme", pool[1]); !errors.As(err, &oo) {
		t.Errorf("out-of-order submit returned %v", err)
	}
	if _, ok := IsRetryable(&OutOfOrderError{}); ok {
		t.Error("out-of-order classified as retryable backpressure")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitRejectsNonFinite: a submit whose arrival time or precursor m/z
// is not finite, or whose charge is below 1, is refused with the typed,
// non-retryable error at both entrances and changes no state — admitted, a
// NaN arrival makes next() return NaN forever and Drain spin, and a +Inf one
// makes every later submit out of order. A valid submit and Close still
// complete afterwards.
func TestSubmitRejectsNonFinite(t *testing.T) {
	db, pool := testWorkload(t, 40, 4)
	s, err := New(steadyCfg(db))
	if err != nil {
		t.Fatal(err)
	}
	before := s.Metrics()
	with := func(charge int, mz float64) *spectrum.Spectrum {
		sp := *pool[0]
		sp.Charge, sp.PrecursorMZ = charge, mz
		return &sp
	}
	for name, f := range map[string]*SubmitFrame{
		"NaN at":        {Tenant: "acme", AtSec: math.NaN(), Spec: pool[0]},
		"+Inf at":       {Tenant: "acme", AtSec: math.Inf(1), Spec: pool[0]},
		"-Inf at":       {Tenant: "acme", AtSec: math.Inf(-1), Spec: pool[0]},
		"charge 0":      {Tenant: "acme", AtSec: 1, Spec: with(0, pool[0].PrecursorMZ)},
		"NaN precursor": {Tenant: "acme", AtSec: 1, Spec: with(2, math.NaN())},
	} {
		var inv *InvalidSubmitError
		if err := s.Submit(f.AtSec, f.Tenant, f.Spec); !errors.As(err, &inv) {
			t.Errorf("%s: Submit returned %v", name, err)
		}
		if err := s.SubmitFrame(f.Encode()); !errors.As(err, &inv) {
			t.Errorf("%s: SubmitFrame returned %v", name, err)
		}
		if _, ok := IsRetryable(inv); ok {
			t.Errorf("%s: classified as retryable backpressure", name)
		}
	}
	if got := s.Metrics(); !reflect.DeepEqual(got, before) {
		t.Errorf("rejected submits changed the stats:\n got %+v\nwant %+v", got, before)
	}
	if err := s.Submit(1, "acme", pool[1]); err != nil {
		t.Fatalf("valid submit after the rejections: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Completed; got != 1 {
		t.Errorf("completed %d, want 1", got)
	}
}

// TestPriorityInversionRegression: with service capacity 1 and a deep
// batch-lane backlog, an interactive arrival must take the very next free
// slot — it never waits behind the backlog it outranks.
func TestPriorityInversionRegression(t *testing.T) {
	db, pool := testWorkload(t, 40, 8)
	cfg := steadyCfg(db)
	cfg.Tenants = []TenantConfig{
		{Name: "bulk", QuotaPerSec: -1},
		{Name: "live", QuotaPerSec: -1, Priority: PriorityInteractive},
	}
	cfg.MaxBatch = 1
	cfg.MaxInflight = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Six bulk batches queue at t=0; the first dispatches immediately and
	// the rest wait. The interactive query arrives while the first batch
	// is still in flight.
	for i := 0; i < 6; i++ {
		if err := s.Submit(0, "bulk", pool[i]); err != nil {
			t.Fatalf("bulk submit %d: %v", i, err)
		}
	}
	if err := s.Submit(1e-9, "live", pool[6]); err != nil {
		t.Fatalf("live submit: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	comps := s.Completions()
	if len(comps) != 7 {
		t.Fatalf("got %d completions, want 7", len(comps))
	}
	liveAt := -1
	for i, c := range comps {
		if c.Tenant == "live" {
			liveAt = i
			break
		}
	}
	// At most the already-in-flight bulk batch may finish first.
	if liveAt > 1 {
		t.Errorf("interactive query completed at position %d behind %d bulk batches (priority inversion)",
			liveAt, liveAt)
	}
}

// TestSteadyStateIngestAllocs: the accepted Submit path — admission checks,
// token refill, ring append — must not allocate, so sustained ingest never
// pressures the collector. Rejections and batch closes may allocate; the
// run below stays strictly on the accept path.
func TestSteadyStateIngestAllocs(t *testing.T) {
	db, pool := testWorkload(t, 40, 4)
	cfg := steadyCfg(db)
	cfg.BatchWindowSec = 1e9
	cfg.MaxBatch = 1 << 20
	cfg.Tenants = []TenantConfig{{Name: "acme", QuotaPerSec: -1, QueueCap: 4096}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := 0.0
	sp := pool[0]
	avg := testing.AllocsPerRun(1000, func() {
		at += 1e-6
		if err := s.Submit(at, "acme", sp); err != nil {
			t.Fatalf("steady-state submit rejected: %v", err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Submit allocates %.2f objects per call, want 0", avg)
	}
}
