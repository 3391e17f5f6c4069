package core

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"pepscale/internal/cluster"
)

// fragIdxAlgos enumerates every engine the fragment-index path is plumbed
// through.
var fragIdxAlgos = []Algorithm{AlgoMasterWorker, AlgoA, AlgoANoMask, AlgoB, AlgoSubGroup, AlgoCandidate}

// TestFragIdxEnginesBitIdentical runs every engine traced under the default
// peptide-major scan and under the fragment-index scan: hit lists, metrics,
// and the exported trace bytes must match exactly — the fragment index may
// change only host-side speed, never results or the virtual clock.
func TestFragIdxEnginesBitIdentical(t *testing.T) {
	in := testInput(t, 80, 12)
	for _, algo := range fragIdxAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			opt := testOptions()
			base, err := Run(algo, tracedCfg(4), in, opt)
			if err != nil {
				t.Fatal(err)
			}
			fragOpt := opt
			fragOpt.ScanMode = ScanModeFragIdx
			frag, err := Run(algo, tracedCfg(4), in, fragOpt)
			if err != nil {
				t.Fatal(err)
			}
			queriesEqual(t, algo.String(), base.Queries, frag.Queries)
			if !reflect.DeepEqual(base.Metrics, frag.Metrics) {
				t.Errorf("metrics differ:\npeptide-major %+v\nfragidx       %+v", base.Metrics, frag.Metrics)
			}
			if !bytes.Equal(exportTrace(t, base), exportTrace(t, frag)) {
				t.Error("trace bytes differ between peptide-major and fragidx scans")
			}
		})
	}
}

// TestFragIdxEngineScorers covers the remaining scorers (the engine sweep
// above runs the default likelihood) on one transport engine, with the
// prefilter enabled to exercise the quick-walk path end to end.
func TestFragIdxEngineScorers(t *testing.T) {
	in := testInput(t, 80, 12)
	for _, scorer := range []string{"hyper", "sharedpeaks", "xcorr"} {
		for _, prefilter := range []float64{0, 0.25} {
			opt := testOptions()
			opt.ScorerName = scorer
			opt.Prefilter = prefilter
			base, err := Run(AlgoA, tracedCfg(4), in, opt)
			if err != nil {
				t.Fatal(err)
			}
			fragOpt := opt
			fragOpt.ScanMode = ScanModeFragIdx
			frag, err := Run(AlgoA, tracedCfg(4), in, fragOpt)
			if err != nil {
				t.Fatal(err)
			}
			label := scorer
			if prefilter > 0 {
				label += "+prefilter"
			}
			queriesEqual(t, label, base.Queries, frag.Queries)
			if !reflect.DeepEqual(base.Metrics, frag.Metrics) {
				t.Errorf("%s: metrics differ", label)
			}
			if !bytes.Equal(exportTrace(t, base), exportTrace(t, frag)) {
				t.Errorf("%s: trace bytes differ", label)
			}
		}
	}
}

// TestFragIdxResilientChaos crashes a rank mid-run of the static elastic
// roster under the fragment-index scan: the recovery attempt re-partitions
// the blocks over the survivors, and the final results must still match the
// failure-free peptide-major run bit-for-bit.
func TestFragIdxResilientChaos(t *testing.T) {
	in := testInput(t, 80, 12)
	opt := testOptions()
	eopt := ElasticOptions{EpochSteps: 2}
	golden, grec, err := RunElastic(clusterCfg(6), in, opt, eopt)
	if err != nil {
		t.Fatal(err)
	}
	if len(grec.Attempts) != 1 {
		t.Fatalf("golden run had %d attempts", len(grec.Attempts))
	}

	fragOpt := opt
	fragOpt.ScanMode = ScanModeFragIdx

	// Failure-free fragment-index run: identical results and metrics.
	clean, _, err := RunElastic(clusterCfg(6), in, fragOpt, eopt)
	if err != nil {
		t.Fatal(err)
	}
	queriesEqual(t, "failure-free", golden.Queries, clean.Queries)
	if !reflect.DeepEqual(golden.Metrics, clean.Metrics) {
		t.Errorf("failure-free metrics differ:\npeptide-major %+v\nfragidx       %+v", golden.Metrics, clean.Metrics)
	}

	// Chaos: crash a rank, recover, rebuild indices — results unchanged.
	res, rec, err := RunElastic(clusterCfg(6), in, fragOpt, ElasticOptions{
		EpochSteps: eopt.EpochSteps,
		Faults:     []*cluster.FaultPlan{{CrashAtCall: map[int]int{1: 9}}},
	})
	if err != nil {
		t.Fatalf("%v (attempts: %+v)", err, rec.Attempts)
	}
	if len(rec.Attempts) != 2 {
		t.Fatalf("ran %d attempts, want 2 (%+v)", len(rec.Attempts), rec.Attempts)
	}
	queriesEqual(t, "chaos", golden.Queries, res.Queries)
	if res.Metrics.Candidates != golden.Metrics.Candidates {
		t.Errorf("candidates %d, want %d", res.Metrics.Candidates, golden.Metrics.Candidates)
	}
}

// TestScanModeValidate pins the option-validation surface of ScanMode.
func TestScanModeValidate(t *testing.T) {
	for _, mode := range []string{"", ScanModePeptideMajor, ScanModeFragIdx} {
		opt := DefaultOptions()
		opt.ScanMode = mode
		if err := opt.Validate(); err != nil {
			t.Errorf("mode %q: unexpected error %v", mode, err)
		}
	}
	opt := DefaultOptions()
	// "query" named the query-major reference until it became test-only.
	for _, mode := range []string{"inverted", "query"} {
		opt.ScanMode = mode
		if err := opt.Validate(); err == nil {
			t.Errorf("invalid scan mode %q accepted", mode)
		}
	}
	if math.IsNaN(opt.MinScore) {
		t.Error("sanity")
	}
	// The fragment index packs fragment charge into three bits; only the
	// peptide-major scan takes a larger cap.
	for _, tc := range []struct {
		mode string
		maxZ int
		ok   bool
	}{
		{ScanModeFragIdx, 2, true}, {ScanModeFragIdx, 7, true}, {ScanModeFragIdx, 8, false},
		{ScanModePeptideMajor, 8, true}, {"", 8, true},
	} {
		opt := DefaultOptions()
		opt.ScanMode, opt.Score.Theoretical.MaxFragmentCharge = tc.mode, tc.maxZ
		err := opt.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("mode %q, MaxFragmentCharge %d: Validate = %v, want ok=%v", tc.mode, tc.maxZ, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "MaxFragmentCharge") {
			t.Errorf("error does not name the option: %v", err)
		}
	}
}
