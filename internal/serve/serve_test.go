package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pepscale/internal/cluster"
	"pepscale/internal/core"
	"pepscale/internal/fasta"
	"pepscale/internal/spectrum"
	"pepscale/internal/synth"
	"pepscale/internal/topk"
	"pepscale/internal/trace"
)

// testWorkload builds a deterministic database and query pool.
func testWorkload(t *testing.T, nDB, nQ int) ([]byte, []*spectrum.Spectrum) {
	t.Helper()
	db := synth.GenerateDB(synth.SizedSpec(nDB))
	data := fasta.Marshal(db)
	truths, err := synth.GenerateSpectra(db, synth.DefaultSpectraSpec(nQ))
	if err != nil {
		t.Fatalf("GenerateSpectra: %v", err)
	}
	return data, synth.Spectra(truths)
}

func testOpt() core.Options {
	opt := core.DefaultOptions()
	opt.Tau = 10
	return opt
}

// offlineHits runs the pool as one offline batch through the serial
// reference and indexes the per-query hit lists by query id.
func offlineHits(t *testing.T, db []byte, pool []*spectrum.Spectrum, opt core.Options) map[string][]topk.Hit {
	t.Helper()
	res, err := core.Serial(core.Input{DBData: db, Queries: pool}, opt, cluster.GigabitCluster())
	if err != nil {
		t.Fatalf("Serial: %v", err)
	}
	want := make(map[string][]topk.Hit, len(res.Queries))
	for _, q := range res.Queries {
		want[q.ID] = q.Hits
	}
	return want
}

// checkService runs the full service contract on a closed server: every
// admitted query completed exactly once, and every completion's hits are
// bit-identical to the offline batch run.
func checkService(t *testing.T, label string, s *Server, rejs []Rejection, want map[string][]topk.Hit) {
	t.Helper()
	st := s.Metrics()
	if st.Admitted+st.RejectedQuota+st.RejectedQueue != st.Submitted {
		t.Errorf("%s: admission counters inconsistent: %+v", label, st)
	}
	if int64(len(rejs)) != st.RejectedQuota+st.RejectedQueue {
		t.Errorf("%s: %d rejections recorded, counters say %d",
			label, len(rejs), st.RejectedQuota+st.RejectedQueue)
	}
	comps := s.Completions()
	if int64(len(comps)) != st.Admitted {
		t.Fatalf("%s: %d completions for %d admitted queries", label, len(comps), st.Admitted)
	}
	seen := map[string]bool{}
	for _, c := range comps {
		key := fmt.Sprintf("%s/%d", c.Tenant, c.Seq)
		if seen[key] {
			t.Fatalf("%s: query %s answered twice", label, key)
		}
		seen[key] = true
		if c.DoneSec < c.ArriveSec {
			t.Errorf("%s: query %s done %.6f before arrival %.6f", label, key, c.DoneSec, c.ArriveSec)
		}
		wh, ok := want[c.QueryID]
		if !ok {
			t.Fatalf("%s: completion for unknown query %q", label, c.QueryID)
		}
		if !reflect.DeepEqual(c.Hits, wh) {
			t.Errorf("%s: query %s (%s) hits differ from offline batch:\n got %+v\nwant %+v",
				label, key, c.QueryID, c.Hits, wh)
		}
	}
}

// steadyCfg is the baseline service configuration for the golden tests.
func steadyCfg(db []byte) Config {
	return Config{
		DB:             db,
		Opt:            testOpt(),
		Ranks:          4,
		BatchWindowSec: 0.05,
		MaxBatch:       4,
		Cost:           cluster.GigabitCluster(),
		Tenants: []TenantConfig{
			{Name: "acme", QuotaPerSec: -1},
			{Name: "zeta", QuotaPerSec: -1, Weight: 2},
		},
	}
}

// steadySpec is the shared two-tenant steady/bursty load.
func steadySpec() LoadSpec {
	return LoadSpec{Seed: 42, HorizonSec: 1.0, Loads: []TenantLoad{
		{Tenant: TenantConfig{Name: "acme"}, Profile: ProfileSteady, RatePerSec: 40},
		{Tenant: TenantConfig{Name: "zeta"}, Profile: ProfileBursty, RatePerSec: 30},
	}}
}

// TestStreamingMatchesOffline is the tentpole acceptance test: a seeded
// streaming run — batching windows, WFQ dispatch — must produce per-query
// top-τ hits bit-identical to the same queries run as one offline batch.
func TestStreamingMatchesOffline(t *testing.T) {
	db, pool := testWorkload(t, 60, 12)
	want := offlineHits(t, db, pool, testOpt())
	arrivals := Schedule(steadySpec(), pool)
	if len(arrivals) == 0 {
		t.Fatal("empty schedule")
	}
	for _, steps := range []int{0, 1} {
		label := fmt.Sprintf("steps=%d", steps)
		cfg := steadyCfg(db)
		cfg.StepsPerQuantum = steps
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: New: %v", label, err)
		}
		rejs, err := s.Play(arrivals)
		if err != nil {
			t.Fatalf("%s: Play: %v", label, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: Close: %v", label, err)
		}
		checkService(t, label, s, rejs, want)
		if s.Metrics().Batches < 2 {
			t.Errorf("%s: only %d batches formed; load too thin to exercise batching",
				label, s.Metrics().Batches)
		}
	}
}

// TestEveryScanModeIsTheSweep: Options.ScanMode names no second kernel.
// Under each value Validate accepts, Algorithm A at p=4 and a pepd run
// report the serial reference's hits and trace bytes identical to the
// "peptide" run's; any other value is refused by Validate, by every engine
// and by the service.
func TestEveryScanModeIsTheSweep(t *testing.T) {
	db, pool := testWorkload(t, 60, 12)
	in := core.Input{DBData: db, Queries: pool}
	serial, err := core.Serial(in, testOpt(), cluster.GigabitCluster())
	if err != nil {
		t.Fatal(err)
	}
	want := offlineHits(t, db, pool, testOpt())
	arrivals := Schedule(steadySpec(), pool)
	chrome := func(tr *trace.Trace) []byte {
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var peptideRun, peptideServe []byte
	for _, mode := range []string{core.ScanModePeptideMajor, "", core.ScanModeFragIdx} {
		opt := testOpt()
		opt.ScanMode = mode
		res, err := core.Run(core.AlgoA, cluster.Config{Ranks: 4, Cost: cluster.GigabitCluster(), Trace: true}, in, opt)
		if err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		for i, q := range res.Queries {
			if !reflect.DeepEqual(q.Hits, serial.Queries[i].Hits) {
				t.Errorf("mode %q: query %s hits differ from Serial", mode, q.ID)
			}
		}

		cfg := steadyCfg(db)
		cfg.Opt = opt
		cfg.Trace = true
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("mode %q: New: %v", mode, err)
		}
		rejs, err := s.Play(arrivals)
		if err != nil {
			t.Fatalf("mode %q: Play: %v", mode, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("mode %q: Close: %v", mode, err)
		}
		checkService(t, "mode "+mode, s, rejs, want)

		run, served := chrome(res.Trace), chrome(s.Trace())
		if peptideRun == nil {
			peptideRun, peptideServe = run, served
		} else if !bytes.Equal(run, peptideRun) || !bytes.Equal(served, peptideServe) {
			t.Errorf("mode %q: trace bytes differ from the %q run's", mode, core.ScanModePeptideMajor)
		}
	}

	opt := testOpt()
	opt.ScanMode = "query" // the query-major reference, test-only since the sweep replaced it
	_, runErr := core.Run(core.AlgoA, cluster.Config{Ranks: 4, Cost: cluster.GigabitCluster()}, in, opt)
	cfg := steadyCfg(db)
	cfg.Opt = opt
	_, newErr := New(cfg)
	for i, err := range []error{opt.Validate(), runErr, newErr} {
		if err == nil || !strings.Contains(err.Error(), "unknown scan mode") {
			t.Errorf("check %d (Validate, Run, New) with scan mode \"query\": err = %v, want unknown scan mode", i, err)
		}
	}
}

// TestDoubleRunTraceIdentical: two runs of the same seeded workload must
// produce byte-identical traces — the determinism acceptance criterion.
func TestDoubleRunTraceIdentical(t *testing.T) {
	db, pool := testWorkload(t, 60, 12)
	arrivals := Schedule(steadySpec(), pool)
	run := func() ([]byte, []Completion) {
		cfg := steadyCfg(db)
		cfg.Trace = true
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := s.Play(arrivals); err != nil {
			t.Fatalf("Play: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		tr := s.Trace()
		if tr == nil {
			t.Fatal("traced run returned no trace")
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, tr); err != nil {
			t.Fatalf("WriteChrome: %v", err)
		}
		return buf.Bytes(), s.Completions()
	}
	b1, c1 := run()
	b2, c2 := run()
	if !bytes.Equal(b1, b2) {
		t.Errorf("double-run traces differ (%d vs %d bytes)", len(b1), len(b2))
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Error("double-run completions differ")
	}
}

// TestBatchFormation pins the batching-window contract: a batch closes on
// max size or the window deadline, whichever comes first, and interactive
// arrivals preempt formation entirely.
func TestBatchFormation(t *testing.T) {
	db, pool := testWorkload(t, 40, 8)
	t.Run("window", func(t *testing.T) {
		cfg := steadyCfg(db)
		cfg.MaxBatch = 16
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Three arrivals inside one window, a fourth far outside it.
		for i, at := range []float64{0, 0.01, 0.02, 0.5} {
			if err := s.Submit(at, "acme", pool[i%len(pool)]); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := s.Metrics().Batches; got != 2 {
			t.Errorf("got %d batches, want 2 (window close + straggler)", got)
		}
		comps := s.Completions()
		if len(comps) != 4 {
			t.Fatalf("got %d completions, want 4", len(comps))
		}
		if comps[0].Batch != comps[1].Batch || comps[1].Batch != comps[2].Batch {
			t.Error("first three queries did not share a batch")
		}
		if comps[3].Batch == comps[0].Batch {
			t.Error("straggler joined a batch that closed before it arrived")
		}
	})
	t.Run("max-batch", func(t *testing.T) {
		cfg := steadyCfg(db)
		cfg.MaxBatch = 2
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := s.Submit(0, "acme", pool[i%len(pool)]); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := s.Metrics().Batches; got != 3 {
			t.Errorf("got %d batches, want 3 (2+2+1 under MaxBatch=2)", got)
		}
	})
	t.Run("interactive-preempts", func(t *testing.T) {
		cfg := steadyCfg(db)
		cfg.Tenants = append(cfg.Tenants, TenantConfig{Name: "live", QuotaPerSec: -1, Priority: PriorityInteractive})
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := s.Submit(float64(i)*0.001, "live", pool[i]); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := s.Metrics().Batches; got != 3 {
			t.Errorf("got %d batches, want 3 (interactive closes every arrival immediately)", got)
		}
	})
}

// TestWFQAlternates: equal-weight tenants with equal backlogs must share
// dispatch bandwidth — the scheduler alternates between them instead of
// draining one tenant's queue first.
func TestWFQAlternates(t *testing.T) {
	db, pool := testWorkload(t, 40, 8)
	cfg := steadyCfg(db)
	cfg.Tenants = []TenantConfig{
		{Name: "acme", QuotaPerSec: -1},
		{Name: "zeta", QuotaPerSec: -1},
	}
	cfg.MaxBatch = 1
	cfg.MaxInflight = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Submit(0, "acme", pool[i]); err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(0, "zeta", pool[3+i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	comps := s.Completions()
	if len(comps) != 6 {
		t.Fatalf("got %d completions, want 6", len(comps))
	}
	for i := 1; i < len(comps); i++ {
		if comps[i].Tenant == comps[i-1].Tenant {
			t.Fatalf("dispatch did not alternate tenants: %s then %s at %d",
				comps[i-1].Tenant, comps[i].Tenant, i)
		}
	}
}

// TestSubmitFrameRoundTrip drives the server through the wire codec and
// streams completions back out as result frames.
func TestSubmitFrameRoundTrip(t *testing.T) {
	db, pool := testWorkload(t, 40, 4)
	cfg := steadyCfg(db)
	var frames [][]byte
	cfg.Sink = func(c Completion) { frames = append(frames, c.Frame().Encode()) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range pool {
		f := &SubmitFrame{Tenant: "acme", Seq: uint64(i), AtSec: float64(i) * 0.001, Spec: sp}
		if err := s.SubmitFrame(f.Encode()); err != nil {
			t.Fatalf("SubmitFrame %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(pool) {
		t.Fatalf("sank %d result frames, want %d", len(frames), len(pool))
	}
	for i, b := range frames {
		rf, err := DecodeResult(b)
		if err != nil {
			t.Fatalf("DecodeResult %d: %v", i, err)
		}
		c := s.Completions()[i]
		if rf.Tenant != c.Tenant || rf.Seq != c.Seq || rf.QueryID != c.QueryID {
			t.Errorf("frame %d decodes to (%s,%d,%s), want (%s,%d,%s)",
				i, rf.Tenant, rf.Seq, rf.QueryID, c.Tenant, c.Seq, c.QueryID)
		}
		if !reflect.DeepEqual(rf.Hits, c.Hits) {
			t.Errorf("frame %d hits differ after round trip", i)
		}
	}
}

// TestScheduleDeterministic: the load generator is a pure function of its
// spec, and per-tenant streams are independent.
func TestScheduleDeterministic(t *testing.T) {
	_, pool := testWorkload(t, 40, 8)
	spec := steadySpec()
	a := Schedule(spec, pool)
	b := Schedule(spec, pool)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec produced different schedules")
	}
	for i := 1; i < len(a); i++ {
		if a[i].AtSec < a[i-1].AtSec {
			t.Fatalf("schedule not time-ordered at %d", i)
		}
	}
	spec.Seed++
	if c := Schedule(spec, pool); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	// Appending a tenant must not perturb existing tenants' arrivals.
	spec = steadySpec()
	spec.Loads = append(spec.Loads, TenantLoad{
		Tenant: TenantConfig{Name: "extra"}, Profile: ProfileAdversarial, RatePerSec: 50})
	d := Schedule(spec, pool)
	var kept []Arrival
	for _, ar := range d {
		if ar.Tenant != "extra" {
			kept = append(kept, ar)
		}
	}
	if !reflect.DeepEqual(a, kept) {
		t.Fatal("adding a tenant perturbed the other tenants' arrival streams")
	}
}
