package score

import (
	"testing"

	"pepscale/internal/spectrum"
	"pepscale/internal/synth"
)

// makeQueryCharge is makeQuery at an explicit precursor charge.
func makeQueryCharge(t testing.TB, pep string, seed uint64, charge int) *Query {
	t.Helper()
	model := spectrum.Theoretical("m", []byte(pep), nil, charge, spectrum.DefaultTheoretical)
	rng := synth.NewRNG(seed)
	s := &spectrum.Spectrum{ID: "q-" + pep, PrecursorMZ: model.PrecursorMZ, Charge: charge}
	for _, p := range model.Peaks {
		if rng.Float64() < 0.75 {
			s.Peaks = append(s.Peaks, spectrum.Peak{MZ: p.MZ + rng.NormFloat64()*0.05, Intensity: p.Intensity * 100 * (0.5 + rng.Float64())})
		}
	}
	for i := 0; i < 10; i++ {
		s.Peaks = append(s.Peaks, spectrum.Peak{MZ: 100 + rng.Float64()*1500, Intensity: 5 + rng.Float64()*20})
	}
	s.Sort()
	return PrepareQuery(s, DefaultConfig())
}

// preparedPeps spans lengths (incl. the degenerate <2-residue candidates)
// so every slot-count branch of the memoization is hit.
var preparedPeps = []string{
	"K",
	"AK",
	"PEPTIDEK",
	"LLNANVVNVEQIEHEK",
	"MLNANVVSVEQTEHEK", // same length as truePep: shares the memo row
	"AVERYLONGCANDIDATESEQWITHMANYR",
}

// TestScorePreparedMatchesScore pins the batch API's bit-identity contract:
// for every scorer, charge, and candidate (modified or not),
// Prepare+ScorePrepared must equal Score exactly — not approximately —
// including across repeated calls on a shared BatchQuery, whose memo caches
// must hit without drifting.
func TestScorePreparedMatchesScore(t *testing.T) {
	for _, charge := range []int{1, 2, 3} {
		q := makeQueryCharge(t, truePep, 7, charge)
		bq := Batch(q)
		for _, name := range Names() {
			ref, err := New(name, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			bat, err := New(name, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			var prep CandidatePrep
			for _, pepStr := range preparedPeps {
				pep := []byte(pepStr)
				var deltas []float64
				if len(pep) > 4 {
					deltas = make([]float64, len(pep))
					deltas[2] = 15.9949
					deltas[len(pep)-2] = 79.9663
				}
				for _, mod := range [][]float64{nil, deltas} {
					if mod != nil && len(pep) <= 4 {
						continue
					}
					want := ref.Score(q, pep, mod)
					bat.Prepare(&prep, pep, mod, charge)
					for rep := 0; rep < 3; rep++ {
						got := bat.ScorePrepared(&bq, &prep)
						if got != want {
							t.Errorf("%s z=%d pep=%s mod=%v rep=%d: ScorePrepared = %v, Score = %v",
								name, charge, pepStr, mod != nil, rep, got, want)
						}
					}
				}
			}
		}
	}
}

// TestQuickBinsMatchesQuickMatchFraction pins the split prefilter: the
// query-independent QuickBins plus per-query QuickMatchFromBins must
// reproduce QuickMatchFraction exactly.
func TestQuickBinsMatchesQuickMatchFraction(t *testing.T) {
	cfg := DefaultConfig()
	q := makeQuery(t, truePep, 7)
	var bins []int32
	var frags []spectrum.Fragment
	for _, pepStr := range preparedPeps {
		pep := []byte(pepStr)
		want := QuickMatchFraction(q, pep, nil, cfg)
		bins, frags = QuickBins(bins, pep, nil, cfg, frags)
		if got := QuickMatchFromBins(q, bins); got != want {
			t.Errorf("pep=%s: QuickMatchFromBins = %v, QuickMatchFraction = %v", pepStr, got, want)
		}
	}
}

// TestScorePreparedZeroAlloc extends the allocation guard to the batch
// path: once the prep buffers and the query's memo rows are warm, a
// Prepare+ScorePrepared cycle must not touch the heap.
func TestScorePreparedZeroAlloc(t *testing.T) {
	q := makeQuery(t, truePep, 7)
	pep := []byte(truePep)
	for _, name := range Names() {
		sc, err := New(name, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		bq := Batch(q)
		var prep CandidatePrep
		sc.Prepare(&prep, pep, nil, q.Charge) // warm buffers + memo rows
		sc.ScorePrepared(&bq, &prep)
		if allocs := testing.AllocsPerRun(100, func() {
			sc.Prepare(&prep, pep, nil, q.Charge)
			sc.ScorePrepared(&bq, &prep)
		}); allocs != 0 {
			t.Errorf("%s: %v allocs per warmed Prepare+ScorePrepared, want 0", name, allocs)
		}
	}
}

// TestQuickBinsZeroAlloc pins the buffer-reuse contract of the split
// prefilter.
func TestQuickBinsZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	q := makeQuery(t, truePep, 7)
	pep := []byte(truePep)
	var bins []int32
	var frags []spectrum.Fragment
	bins, frags = QuickBins(bins, pep, nil, cfg, frags)
	if allocs := testing.AllocsPerRun(100, func() {
		bins, frags = QuickBins(bins, pep, nil, cfg, frags)
		QuickMatchFromBins(q, bins)
	}); allocs != 0 {
		t.Errorf("QuickBins+QuickMatchFromBins: %v allocs with warm buffers, want 0", allocs)
	}
}
