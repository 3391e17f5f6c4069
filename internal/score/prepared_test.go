package score

import (
	"math"
	"testing"

	"pepscale/internal/chem"
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
						got, ok := bat.ScorePrepared(&bq, &prep, math.Inf(-1))
						if !ok || got != want {
							t.Errorf("%s z=%d pep=%s mod=%v rep=%d: ScorePrepared = %v, %v; Score = %v",
								name, charge, pepStr, mod != nil, rep, got, ok, want)
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
	var prefix []float64
	for _, pepStr := range preparedPeps {
		pep := []byte(pepStr)
		want := QuickMatchFraction(q, pep, nil, cfg)
		bins, prefix = QuickBins(bins, prefix, pep, nil, cfg)
		if got := QuickMatchFromBins(q, bins); got != want {
			t.Errorf("pep=%s: QuickMatchFromBins = %v, QuickMatchFraction = %v", pepStr, got, want)
		}
	}
}

// TestScorePreparedZeroAlloc extends the allocation guard to the batch
// path: once the prep buffers and the query's memo rows are warm, a
// Prepare+ScorePrepared cycle must not touch the heap — including the
// likelihood model's null passes, filled on demand by a query that needs
// them after another query was bounded out before them.
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
		cycle := func() {
			sc.Prepare(&prep, pep, nil, q.Charge)
			sc.ScorePrepared(&bq, &prep, math.Inf(1))
			sc.ScorePrepared(&bq, &prep, math.Inf(-1))
		}
		cycle() // warm buffers + memo rows
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("%s: %v allocs per warmed Prepare+ScorePrepared, want 0", name, allocs)
		}
	}
}

// randomCandidate draws a candidate of 1–29 residues, with per-residue
// modification deltas on a third of the draws.
func randomCandidate(rng *synth.RNG) ([]byte, []float64) {
	pep := make([]byte, 1+rng.Intn(29))
	for i := range pep {
		pep[i] = chem.Residues[rng.Intn(len(chem.Residues))]
	}
	if rng.Intn(3) != 0 {
		return pep, nil
	}
	deltas := make([]float64, len(pep))
	deltas[rng.Intn(len(pep))] = chem.OxidationM.Delta
	deltas[rng.Intn(len(pep))] = chem.PhosphoSTY.Delta
	return pep, deltas
}

// randomQuery is a query for a random peptide at the given charge: 75 % of
// its model peaks, jittered, plus noise random peaks.
func randomQuery(rng *synth.RNG, charge, noise int) (*Query, []byte) {
	pep, _ := randomCandidate(rng)
	for len(pep) < 6 {
		pep, _ = randomCandidate(rng)
	}
	model := spectrum.Theoretical("m", pep, nil, charge, spectrum.DefaultTheoretical)
	s := &spectrum.Spectrum{ID: "q", PrecursorMZ: model.PrecursorMZ, Charge: charge}
	for _, p := range model.Peaks {
		if rng.Float64() < 0.75 {
			s.Peaks = append(s.Peaks, spectrum.Peak{MZ: p.MZ + rng.NormFloat64()*0.05, Intensity: p.Intensity * 100 * (0.5 + rng.Float64())})
		}
	}
	for i := 0; i < noise; i++ {
		s.Peaks = append(s.Peaks, spectrum.Peak{MZ: 100 + rng.Float64()*1500, Intensity: 5 + rng.Float64()*20})
	}
	s.Sort()
	return PrepareQuery(s, DefaultConfig()), pep
}

// checkBound asserts ScorePrepared's contract against the exact score: a
// rejection only below floor, an accepted score equal bit for bit.
func checkBound(t *testing.T, what string, got float64, ok bool, want, floor float64) {
	t.Helper()
	if ok && math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s floor=%v: ScorePrepared = %v, Score = %v", what, floor, got, want)
	}
	if !ok && !(want < floor) {
		t.Errorf("%s floor=%v: rejected, but Score = %v", what, floor, want)
	}
}

// TestScorePreparedBoundIsSound holds the likelihood model's null-pass
// bound to its contract over random queries (charges 1–4, up to 60 noise
// peaks, and one spectrum whose occupancy clamps at 0.5, so log(p1/p0) < 0
// on weak slots), random candidates with and without mods, and floors at,
// one ulp either side of, and at random offsets from the exact score. One
// CandidatePrep serves every floor of a candidate, so null passes are
// filled by whichever call first needs them. Random passes rarely come
// near L, so L is also checked against a pass built to attain it.
func TestScorePreparedBoundIsSound(t *testing.T) {
	rng := synth.NewRNG(41)
	type query struct {
		q   *Query
		pep []byte // the peptide the spectrum was drawn from
	}
	var qs []query
	for charge := 1; charge <= 4; charge++ {
		for _, noise := range []int{0, 10, 60} {
			q, pep := randomQuery(rng, charge, noise)
			qs = append(qs, query{q, pep})
		}
	}
	// Every bin of 300–700 Da occupied and kept: occupancy 1, clamped to 0.5.
	clamp := &spectrum.Spectrum{ID: "clamped", PrecursorMZ: 800, Charge: 3}
	for mz := 300.0; mz < 700; mz += 0.25 {
		clamp.Peaks = append(clamp.Peaks, spectrum.Peak{MZ: mz, Intensity: 1 + rng.Float64()*50})
	}
	cfg := DefaultConfig()
	cfg.Preprocess = spectrum.PreprocessOptions{}
	qs = append(qs, query{PrepareQuery(clamp, cfg), []byte(truePep)})
	if qs[len(qs)-1].q.occupancy != 0.5 {
		t.Fatalf("clamped query occupancy %v, want 0.5", qs[len(qs)-1].q.occupancy)
	}

	ref, bat := &Likelihood{cfg: DefaultConfig()}, &Likelihood{cfg: DefaultConfig()}
	var prep CandidatePrep
	rejected, accepted := 0, 0
	for qi, x := range qs {
		bq := Batch(x.q)
		for c := 0; c < 60; c++ {
			pep, mod := randomCandidate(rng)
			if c == 0 {
				pep, mod = x.pep, nil
			}
			want := ref.Score(x.q, pep, mod)
			floors := []float64{
				want + 20*(rng.Float64()-0.5),
				math.Nextafter(want, math.Inf(1)),
				want,
				math.Nextafter(want, math.Inf(-1)),
				want + 2*rng.NormFloat64(),
				10 * rng.NormFloat64(),
			}
			bat.Prepare(&prep, pep, mod, x.q.Charge)
			for _, floor := range floors {
				got, ok := bat.ScorePrepared(&bq, &prep, floor)
				checkBound(t, x.q.ID+"/"+string(pep), got, ok, want, floor)
				if ok {
					accepted++
				} else {
					rejected++
				}
			}
		}
		if t.Failed() {
			t.Fatalf("query %d failed", qi)
		}
	}
	t.Logf("%d floors rejected, %d accepted", rejected, accepted)
	if rejected == 0 || accepted == 0 {
		t.Fatalf("bound exercised one side only: %d rejected, %d accepted", rejected, accepted)
	}

	// L is attained: a pass that puts each slot on its least term (no peak,
	// the weakest peak or the strongest) sums to L within slack, so no
	// term of L exceeds what a pass can make it.
	for _, x := range qs {
		var weak, strong int32
		for bin := x.q.Binned.MinBin; bin <= x.q.Binned.MaxBin; bin++ {
			if v, ok := x.q.PeakInten(bin); ok && v == x.q.intenLo {
				weak = bin
			} else if ok && v == x.q.intenHi {
				strong = bin
			}
		}
		bat.Prepare(&prep, x.pep, nil, x.q.Charge)
		n := len(prep.pass[0].bins)
		bq := Batch(x.q)
		rr := bq.lenTerms(len(x.pep), n)
		lo, hi := 0.5+0.5*x.q.intenLo, 0.5+0.5*x.q.intenHi
		least := prepPass{bins: make([]int32, n)}
		for j := range least.bins {
			r1, r0 := rr[2*j], rr[2*j+1]
			switch {
			case r0 <= lo*r1 && r0 <= hi*r1:
				least.bins[j] = x.q.Binned.MaxBin + 1
			case lo*r1 <= hi*r1:
				least.bins[j] = weak
			default:
				least.bins[j] = strong
			}
		}
		if got := likelihoodPassCached(x.q, &least, rr); math.Abs(got-rr[2*n]) > rr[2*n+1] {
			t.Errorf("%s: least pass sums to %v, L = %v (slack %v)", x.q.ID, got, rr[2*n], rr[2*n+1])
		}
	}

	// A stale pass: candidate A fully prepared, then candidate B's first
	// query bounded out before its first null pass; a second query needing
	// every pass must score B, not B's model over A's null passes.
	x := qs[4]
	a, b := []byte("LLNANVVNVEQIEHEK"), []byte("MLNANVVSVEQTEHEK")
	bq, bq2 := Batch(x.q), Batch(x.q)
	bat.Prepare(&prep, a, nil, x.q.Charge)
	if _, ok := bat.ScorePrepared(&bq, &prep, math.Inf(-1)); !ok {
		t.Fatal("candidate A rejected at floor -Inf")
	}
	bat.Prepare(&prep, b, nil, x.q.Charge)
	if _, ok := bat.ScorePrepared(&bq, &prep, math.Inf(1)); ok {
		t.Fatal("candidate B accepted at floor +Inf")
	}
	got, ok := bat.ScorePrepared(&bq2, &prep, math.Inf(-1))
	checkBound(t, "stale pass", got, ok, ref.Score(x.q, b, nil), math.Inf(-1))
}

// FuzzScorePreparedBound checks the bound's contract on arbitrary
// spectra: peptide bytes map onto residues, every two spectrum bytes are
// one peak (m/z and intensity, zeros and ties included), and the floor
// is taken both as given and as an offset from the exact score.
func FuzzScorePreparedBound(f *testing.F) {
	f.Add([]byte("PEPTIDEK"), []byte{10, 200, 40, 90, 41, 90, 120, 0}, uint8(2), 0.0, false)
	f.Add([]byte("LLNANVVNVEQIEHEK"), []byte{77, 13}, uint8(1), -3.5, true)
	f.Add([]byte("AK"), []byte{}, uint8(4), 1e-9, false)
	f.Add([]byte("MSTY"), []byte{1, 0, 2, 0, 3, 0}, uint8(3), 2.0, true)
	f.Fuzz(func(t *testing.T, pepIn, peaks []byte, charge uint8, floor float64, mod bool) {
		if len(pepIn) == 0 || len(pepIn) > 40 || len(peaks) > 400 {
			return
		}
		pep := make([]byte, len(pepIn))
		for i, c := range pepIn {
			pep[i] = chem.Residues[int(c)%len(chem.Residues)]
		}
		var deltas []float64
		if mod {
			deltas = make([]float64, len(pep))
			deltas[int(pepIn[0])%len(pep)] = chem.PhosphoSTY.Delta
		}
		s := &spectrum.Spectrum{ID: "f", PrecursorMZ: 900, Charge: 1 + int(charge%4)}
		for i := 0; i+1 < len(peaks); i += 2 {
			s.Peaks = append(s.Peaks, spectrum.Peak{MZ: 60 + 8*float64(peaks[i]), Intensity: float64(peaks[i+1])})
		}
		s.Sort()
		cfg := DefaultConfig()
		if charge >= 128 { // keep every peak: dense spectra, clamped occupancy
			cfg.Preprocess = spectrum.PreprocessOptions{}
		}
		q := PrepareQuery(s, cfg)
		ref, bat := &Likelihood{cfg: cfg}, &Likelihood{cfg: cfg}
		want := ref.Score(q, pep, deltas)
		bq := Batch(q)
		var prep CandidatePrep
		bat.Prepare(&prep, pep, deltas, q.Charge)
		for _, fl := range []float64{floor, want + floor, want} {
			got, ok := bat.ScorePrepared(&bq, &prep, fl)
			checkBound(t, string(pep), got, ok, want, fl)
		}
	})
}

// TestQuickBinsZeroAlloc pins the buffer-reuse contract of the split
// prefilter.
func TestQuickBinsZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	q := makeQuery(t, truePep, 7)
	pep := []byte(truePep)
	var bins []int32
	var prefix []float64
	bins, prefix = QuickBins(bins, prefix, pep, nil, cfg)
	if allocs := testing.AllocsPerRun(100, func() {
		bins, prefix = QuickBins(bins, prefix, pep, nil, cfg)
		QuickMatchFromBins(q, bins)
	}); allocs != 0 {
		t.Errorf("QuickBins+QuickMatchFromBins: %v allocs with warm buffers, want 0", allocs)
	}
}
