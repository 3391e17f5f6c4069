package core

import (
	"reflect"
	"strings"
	"testing"

	"pepscale/internal/cluster"
	"pepscale/internal/fasta"
	"pepscale/internal/synth"
)

// testInput builds a small deterministic workload: nDB synthetic proteins
// and nQ spectra drawn from them.
func testInput(t *testing.T, nDB, nQ int) Input {
	t.Helper()
	spec := synth.SizedSpec(nDB)
	db := synth.GenerateDB(spec)
	data := fasta.Marshal(db)
	truths, err := synth.GenerateSpectra(db, synth.DefaultSpectraSpec(nQ))
	if err != nil {
		t.Fatalf("GenerateSpectra: %v", err)
	}
	return Input{DBData: data, Queries: synth.Spectra(truths)}
}

func testOptions() Options {
	opt := DefaultOptions()
	opt.Tau = 10
	return opt
}

func clusterCfg(p int) cluster.Config {
	return cluster.Config{Ranks: p, Cost: cluster.GigabitCluster()}
}

// assertHitsInWindow asserts the invariant every search owes its caller
// whatever the engine: each reported hit's mass lies inside the query's
// window m(q) ± δ.
func assertHitsInWindow(t *testing.T, opt Options, results []QueryResult) {
	t.Helper()
	for _, q := range results {
		lo, hi := opt.Tol.Window(q.ParentMass)
		for _, h := range q.Hits {
			if !(h.Mass >= lo && h.Mass <= hi) {
				t.Errorf("query %s (parent %v): hit %s of mass %v lies outside [%v, %v]", q.ID, q.ParentMass, h.Peptide, h.Mass, lo, hi)
			}
		}
	}
}

// queriesEqual asserts two result sets report identical hit lists, all of
// them inside their queries' mass windows (every caller searches at
// testOptions' δ).
func queriesEqual(t *testing.T, label string, want, got []QueryResult) {
	t.Helper()
	assertHitsInWindow(t, testOptions(), got)
	if len(want) != len(got) {
		t.Fatalf("%s: got %d query results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].Index != got[i].Index || want[i].ID != got[i].ID {
			t.Fatalf("%s: query %d mismatch: got (%d,%s), want (%d,%s)",
				label, i, got[i].Index, got[i].ID, want[i].Index, want[i].ID)
		}
		if !reflect.DeepEqual(want[i].Hits, got[i].Hits) {
			t.Errorf("%s: query %s hits differ:\n got %+v\nwant %+v",
				label, want[i].ID, got[i].Hits, want[i].Hits)
		}
	}
}

// TestEnginesAgree is the paper's validation experiment (V1): every engine
// must reproduce the serial reference output exactly, at every processor
// count.
func TestEnginesAgree(t *testing.T) {
	in := testInput(t, 60, 12)
	opt := testOptions()
	ref, err := Serial(in, opt, cluster.GigabitCluster())
	if err != nil {
		t.Fatalf("Serial: %v", err)
	}
	if ref.Metrics.Candidates == 0 {
		t.Fatal("serial run evaluated zero candidates; workload is degenerate")
	}
	algos := []Algorithm{AlgoMasterWorker, AlgoA, AlgoANoMask, AlgoB, AlgoSubGroup, AlgoCandidate}
	for _, algo := range algos {
		for _, p := range []int{1, 2, 3, 4, 8} {
			opt := opt
			if algo == AlgoSubGroup {
				if p%2 == 0 {
					opt.Groups = 2
				} else {
					opt.Groups = 1
				}
			}
			res, err := Run(algo, clusterCfg(p), in, opt)
			if err != nil {
				t.Fatalf("%v p=%d: %v", algo, p, err)
			}
			queriesEqual(t, algo.String()+"/p="+itoa(p), ref.Queries, res.Queries)
			if res.Metrics.Candidates != ref.Metrics.Candidates {
				t.Errorf("%v p=%d: candidates = %d, want %d", algo, p, res.Metrics.Candidates, ref.Metrics.Candidates)
			}
		}
	}
}

// TestScanModeValidate pins the option-validation surface of ScanMode: the
// accepted values (all of which run the one sweep) pass at any fragment
// charge cap, and any other value is refused.
func TestScanModeValidate(t *testing.T) {
	for _, mode := range []string{"", ScanModePeptideMajor, ScanModeFragIdx} {
		opt := DefaultOptions()
		opt.ScanMode = mode
		opt.Score.Theoretical.MaxFragmentCharge = 8
		if err := opt.Validate(); err != nil {
			t.Errorf("mode %q: unexpected error %v", mode, err)
		}
	}
	// "query" named the query-major reference until it became test-only.
	for _, mode := range []string{"inverted", "query"} {
		opt := DefaultOptions()
		opt.ScanMode = mode
		if err := opt.Validate(); err == nil || !strings.Contains(err.Error(), "unknown scan mode") {
			t.Errorf("scan mode %q: Validate = %v, want unknown scan mode", mode, err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
