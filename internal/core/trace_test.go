package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pepscale/internal/cluster"
	"pepscale/internal/trace"
)

// update regenerates the committed golden trace:
//
//	go test ./internal/core/ -run TestGoldenTrace -update
var update = flag.Bool("update", false, "rewrite golden trace files")

// tracedCfg is clusterCfg with the event tracer enabled.
func tracedCfg(p int) cluster.Config {
	cfg := clusterCfg(p)
	cfg.Trace = true
	return cfg
}

// exportTrace renders a result's trace to Chrome JSON bytes.
func exportTrace(t *testing.T, res *Result) []byte {
	t.Helper()
	if res.Trace == nil {
		t.Fatal("traced run returned no trace")
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, res.Trace); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkTraceMatchesMetrics asserts the folded per-rank trace deltas of the
// final attempt reproduce the run's per-rank metrics exactly — the same
// float64 values added in the same order, so == comparisons are exact.
func checkTraceMatchesMetrics(t *testing.T, res *Result) {
	t.Helper()
	att := res.Trace.Attempts[len(res.Trace.Attempts)-1]
	totals := att.RankTotals()
	if len(totals) != len(res.Metrics.PerRank) {
		t.Fatalf("trace has %d ranks, metrics %d", len(totals), len(res.Metrics.PerRank))
	}
	for i, d := range totals {
		rm := res.Metrics.PerRank[i]
		if d.ComputeSec != rm.ComputeSec {
			t.Errorf("rank %d: trace ComputeSec %v != metrics %v", i, d.ComputeSec, rm.ComputeSec)
		}
		if d.TotalCommSec != rm.TotalCommSec {
			t.Errorf("rank %d: trace TotalCommSec %v != metrics %v", i, d.TotalCommSec, rm.TotalCommSec)
		}
		if d.ResidualCommSec != rm.ResidualCommSec {
			t.Errorf("rank %d: trace ResidualCommSec %v != metrics %v", i, d.ResidualCommSec, rm.ResidualCommSec)
		}
		if d.SyncWaitSec != rm.SyncWaitSec {
			t.Errorf("rank %d: trace SyncWaitSec %v != metrics %v", i, d.SyncWaitSec, rm.SyncWaitSec)
		}
		if d.BytesSent != rm.BytesSent {
			t.Errorf("rank %d: trace BytesSent %d != metrics %d", i, d.BytesSent, rm.BytesSent)
		}
		if d.BytesReceived != rm.BytesReceived {
			t.Errorf("rank %d: trace BytesReceived %d != metrics %d", i, d.BytesReceived, rm.BytesReceived)
		}
		if d.RMABytesReceived != rm.RMABytesReceived {
			t.Errorf("rank %d: trace RMABytesReceived %d != metrics %d", i, d.RMABytesReceived, rm.RMABytesReceived)
		}
		if d.Messages != rm.Messages {
			t.Errorf("rank %d: trace Messages %d != metrics %d", i, d.Messages, rm.Messages)
		}
		if d.RMARetries != rm.RMARetries {
			t.Errorf("rank %d: trace RMARetries %d != metrics %d", i, d.RMARetries, rm.RMARetries)
		}
		if d.RMAFailures != rm.RMAFailures {
			t.Errorf("rank %d: trace RMAFailures %d != metrics %d", i, d.RMAFailures, rm.RMAFailures)
		}
	}
}

// TestTraceDeterminism is the trace-as-correctness-oracle check: every
// engine, run twice from identical seeds, must export byte-identical
// traces that validate and whose folded deltas reproduce the metrics.
func TestTraceDeterminism(t *testing.T) {
	in := testInput(t, 50, 8)
	opt := testOptions()
	for _, tc := range []struct {
		algo Algorithm
		p    int
	}{
		{AlgoA, 8}, // the acceptance configuration: seeded 8-rank Algorithm A
		{AlgoANoMask, 4},
		{AlgoB, 4},
		{AlgoMasterWorker, 4},
		{AlgoSubGroup, 4},
	} {
		t.Run(fmt.Sprintf("%s-p%d", tc.algo, tc.p), func(t *testing.T) {
			run := func() *Result {
				res, err := Run(tc.algo, tracedCfg(tc.p), in, opt)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			first, second := run(), run()
			b1, b2 := exportTrace(t, first), exportTrace(t, second)
			if !bytes.Equal(b1, b2) {
				t.Fatal("two identically-seeded runs exported different traces")
			}
			if err := trace.Validate(first.Trace); err != nil {
				t.Errorf("trace invalid: %v", err)
			}
			checkTraceMatchesMetrics(t, first)
		})
	}
}

// TestTraceDeterminismResilient covers the crash restart of the static
// elastic roster: failure-free and under a deterministic fault plan, double
// runs export byte-identical traces, and the chaos trace records the crash,
// the survivors' detection stalls, and one attempt per driver retry.
func TestTraceDeterminismResilient(t *testing.T) {
	in := testInput(t, 60, 8)
	opt := testOptions()

	runOnce := func(eopt ElasticOptions) (*Result, *Recovery) {
		res, rec, err := RunElastic(tracedCfg(4), in, opt, eopt)
		if err != nil {
			t.Fatal(err)
		}
		return res, rec
	}

	clean := ElasticOptions{EpochSteps: 2}
	r1, _ := runOnce(clean)
	r2, _ := runOnce(clean)
	if !bytes.Equal(exportTrace(t, r1), exportTrace(t, r2)) {
		t.Fatal("clean resilient runs exported different traces")
	}
	if err := trace.Validate(r1.Trace); err != nil {
		t.Errorf("clean trace invalid: %v", err)
	}
	checkTraceMatchesMetrics(t, r1)

	chaos := ElasticOptions{
		EpochSteps: 2,
		Faults: []*cluster.FaultPlan{
			{Seed: 11, CrashAtCall: map[int]int{2: 9}, DetectSec: 0.005},
		},
	}
	c1, rec := runOnce(chaos)
	c2, _ := runOnce(chaos)
	if !bytes.Equal(exportTrace(t, c1), exportTrace(t, c2)) {
		t.Fatal("chaos resilient runs exported different traces")
	}
	if err := trace.Validate(c1.Trace); err != nil {
		t.Errorf("chaos trace invalid: %v", err)
	}
	if got, want := len(c1.Trace.Attempts), len(rec.Attempts); got != want {
		t.Fatalf("trace has %d attempts, recovery made %d", got, want)
	}
	if len(c1.Trace.Attempts) < 2 {
		t.Fatalf("chaos run produced %d attempts, want a failed one plus a retry", len(c1.Trace.Attempts))
	}

	var crashes, detects int
	failed := c1.Trace.Attempts[0]
	for i := range failed.Events {
		for j := range failed.Events[i] {
			switch failed.Events[i][j].Kind {
			case trace.KindCrash:
				crashes++
			case trace.KindDetect:
				detects++
			}
		}
	}
	if crashes != 1 {
		t.Errorf("failed attempt shows %d crash events, want 1", crashes)
	}
	if detects == 0 {
		t.Error("failed attempt shows no detection stalls on survivors")
	}
	// The surviving attempt runs on fewer live ranks (the re-partition).
	if final, first := rec.Attempts[len(rec.Attempts)-1].Ranks, rec.Attempts[0].Ranks; final >= first {
		t.Errorf("final attempt has %d ranks, failed had %d; expected a shrink", final, first)
	}
	checkTraceMatchesMetrics(t, c1)
}

// TestTracePhases asserts the engines tag their phases: Algorithm A
// produces load/scan/report, Algorithm B adds sort, and the checkpointed
// sweep (static RunElastic) adds checkpoint epochs.
func TestTracePhases(t *testing.T) {
	in := testInput(t, 50, 8)
	opt := testOptions()

	phasesOf := func(tr *trace.Trace) map[string]bool {
		got := map[string]bool{}
		for _, a := range tr.Attempts {
			for _, pr := range a.PhaseRollups() {
				got[pr.Phase] = true
			}
		}
		return got
	}

	resA, err := Run(AlgoA, tracedCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	pa := phasesOf(resA.Trace)
	for _, want := range []string{"load", "scan", "report"} {
		if !pa[want] {
			t.Errorf("algorithm A trace missing phase %q (got %v)", want, pa)
		}
	}

	resB, err := Run(AlgoB, tracedCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	pb := phasesOf(resB.Trace)
	for _, want := range []string{"load", "sort", "scan", "report"} {
		if !pb[want] {
			t.Errorf("algorithm B trace missing phase %q (got %v)", want, pb)
		}
	}

	resR, _, err := RunElastic(tracedCfg(4), in, opt, ElasticOptions{EpochSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	pr := phasesOf(resR.Trace)
	for _, want := range []string{"load", "scan", "checkpoint", "report"} {
		if !pr[want] {
			t.Errorf("static elastic trace missing phase %q (got %v)", want, pr)
		}
	}

	// Steps are tagged with the transport-loop index: 4 ranks → steps 0..3.
	att := resA.Trace.Attempts[0]
	steps := att.StepStats()
	if len(steps) != 4 {
		t.Fatalf("algorithm A at p=4 tagged %d steps, want 4", len(steps))
	}
	for i, st := range steps {
		if st.Step != i {
			t.Errorf("step %d has index %d", i, st.Step)
		}
	}

	// An untraced run carries no trace at all.
	plain, err := Run(AlgoA, clusterCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Error("untraced run attached a trace")
	}
}

// TestGoldenTrace compares a small seeded Algorithm A trace against the
// committed golden export, pinning the trace wire format and the virtual
// clock byte-for-byte. Regenerate with -update after intentional changes
// to either.
func TestGoldenTrace(t *testing.T) {
	in := testInput(t, 30, 4)
	opt := testOptions()
	res, err := Run(AlgoA, tracedCfg(3), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := exportTrace(t, res)

	golden := filepath.Join("testdata", "algoa_p3.trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/core/ -run TestGoldenTrace -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from %s (%d vs %d bytes); if the change is intentional, regenerate with -update",
			golden, len(got), len(want))
	}
}
