package core

import (
	"bytes"
	"reflect"
	"testing"

	"pepscale/internal/cluster"
)

// The tests below hold ScanModeFragIdx, which Validate still accepts, to
// the peptide-major sweep engine by engine: no engine, scorer or recovery
// path may read ScanMode and run anything but the one sweep.

// fragIdxAlgos enumerates every engine ScanMode reaches.
var fragIdxAlgos = []Algorithm{AlgoMasterWorker, AlgoA, AlgoANoMask, AlgoB, AlgoSubGroup, AlgoCandidate}

// TestFragIdxEnginesBitIdentical runs every engine traced under the default
// scan mode and under ScanModeFragIdx: hit lists, metrics and the exported
// trace bytes must match exactly.
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
				t.Errorf("metrics differ:\npeptide %+v\nfragidx %+v", base.Metrics, frag.Metrics)
			}
			if !bytes.Equal(exportTrace(t, base), exportTrace(t, frag)) {
				t.Error("trace bytes differ between the peptide and fragidx scan modes")
			}
		})
	}
}

// TestFragIdxEngineScorers covers the remaining scorers (the engine sweep
// above runs the default likelihood) on one transport engine, with and
// without the quick prefilter.
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
// roster under ScanModeFragIdx: the recovery attempt re-partitions the
// blocks over the survivors, and the final results must still match the
// failure-free default-mode run bit for bit.
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

	// Failure-free run: identical results and metrics.
	clean, _, err := RunElastic(clusterCfg(6), in, fragOpt, eopt)
	if err != nil {
		t.Fatal(err)
	}
	queriesEqual(t, "failure-free", golden.Queries, clean.Queries)
	if !reflect.DeepEqual(golden.Metrics, clean.Metrics) {
		t.Errorf("failure-free metrics differ:\npeptide %+v\nfragidx %+v", golden.Metrics, clean.Metrics)
	}

	// Chaos: crash a rank and recover — results unchanged.
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
