package score

import (
	"math"
	"testing"
	"testing/quick"

	"pepscale/internal/chem"
	"pepscale/internal/spectrum"
	"pepscale/internal/synth"
)

// makeQuery fabricates a realistic experimental spectrum for a known
// peptide and prepares it for scoring.
func makeQuery(t testing.TB, pep string, seed uint64) *Query {
	t.Helper()
	model := spectrum.Theoretical("m", []byte(pep), nil, 2, spectrum.DefaultTheoretical)
	rng := synth.NewRNG(seed)
	s := &spectrum.Spectrum{ID: "q-" + pep, PrecursorMZ: model.PrecursorMZ, Charge: 2}
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

const truePep = "LLNANVVNVEQIEHEK"

// decoyOf returns a same-composition decoy (reversed interior).
func decoyOf(pep string) string {
	b := []byte(pep)
	for i, j := 1, len(b)-2; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

func TestRegistry(t *testing.T) {
	for _, name := range Names() {
		sc, err := New(name, DefaultConfig())
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if sc.Name() != name {
			t.Errorf("Name() = %q, want %q", sc.Name(), name)
		}
		if sc.Cost() <= 0 {
			t.Errorf("%s: non-positive cost", name)
		}
	}
	if _, err := New("bogus", DefaultConfig()); err == nil {
		t.Error("expected error for unknown scorer")
	}
	// Empty name defaults to likelihood.
	sc, err := New("", DefaultConfig())
	if err != nil || sc.Name() != "likelihood" {
		t.Errorf("default scorer: %v, %v", sc, err)
	}
}

func TestScorersDeterministic(t *testing.T) {
	q := makeQuery(t, truePep, 42)
	for _, name := range Names() {
		sc, _ := New(name, DefaultConfig())
		a := sc.Score(q, []byte(truePep), nil)
		for i := 0; i < 5; i++ {
			if b := sc.Score(q, []byte(truePep), nil); b != a {
				t.Errorf("%s: nondeterministic score %v vs %v", name, a, b)
			}
		}
	}
}

func TestTruePeptideBeatsDecoy(t *testing.T) {
	// Across several spectra, the generating peptide must outscore a
	// same-composition decoy under every model.
	for _, name := range Names() {
		sc, _ := New(name, DefaultConfig())
		wins := 0
		const trials = 10
		for seed := uint64(0); seed < trials; seed++ {
			q := makeQuery(t, truePep, seed)
			st := sc.Score(q, []byte(truePep), nil)
			sd := sc.Score(q, []byte(decoyOf(truePep)), nil)
			if st > sd {
				wins++
			}
		}
		if wins < trials-1 {
			t.Errorf("%s: true peptide won only %d/%d against decoy", name, wins, trials)
		}
	}
}

func TestScoreHigherWithMoreMatches(t *testing.T) {
	// A spectrum with no matching peaks should score below the matching
	// spectrum for every model.
	q := makeQuery(t, truePep, 7)
	empty := PrepareQuery(&spectrum.Spectrum{
		ID: "noise", PrecursorMZ: q.ParentMass/2 + chem.ProtonMass, Charge: 2,
		Peaks: []spectrum.Peak{{MZ: 1900.77, Intensity: 3}, {MZ: 1911.13, Intensity: 2}},
	}, DefaultConfig())
	for _, name := range Names() {
		sc, _ := New(name, DefaultConfig())
		match := sc.Score(q, []byte(truePep), nil)
		miss := sc.Score(empty, []byte(truePep), nil)
		if match <= miss {
			t.Errorf("%s: matching %v <= non-matching %v", name, match, miss)
		}
	}
}

func TestShuffleMassInvariant(t *testing.T) {
	// The random-peptide null preserves parent mass (same composition).
	f := func(seed uint64) bool {
		seq := randomPeptide(seed, 20)
		orig, err := chem.PeptideMass(seq, chem.Mono)
		if err != nil {
			return false
		}
		null := NullMass(seq, nil, chem.Mono)
		return math.Abs(orig-null) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestShuffleWithModsKeepsTotalDelta(t *testing.T) {
	seq := []byte("AMSTKYR")
	deltas := []float64{0, 15.99, 79.97, 0, 0, 0, 0}
	base, _ := chem.PeptideMass(seq, chem.Mono)
	total := base + 15.99 + 79.97
	if got := NullMass(seq, deltas, chem.Mono); math.Abs(got-total) > 1e-6 {
		t.Errorf("null mass with mods = %v, want %v", got, total)
	}
}

func TestShuffleDeterministicPerPeptide(t *testing.T) {
	a, _ := shuffle([]byte(truePep), nil, 0)
	b, _ := shuffle([]byte(truePep), nil, 0)
	if string(a) != string(b) {
		t.Error("shuffle nondeterministic")
	}
	c, _ := shuffle([]byte(truePep), nil, 1)
	if string(a) == string(c) {
		t.Error("different salts should shuffle differently (overwhelmingly)")
	}
}

func TestPrepareQueryClampsOccupancy(t *testing.T) {
	dense := &spectrum.Spectrum{ID: "dense", PrecursorMZ: 500, Charge: 2}
	for i := 0; i < 50; i++ {
		dense.Peaks = append(dense.Peaks, spectrum.Peak{MZ: 100 + float64(i), Intensity: 10})
	}
	q := PrepareQuery(dense, DefaultConfig())
	if q.occupancy > 0.5 || q.occupancy < 1e-4 {
		t.Errorf("occupancy %v outside clamp", q.occupancy)
	}
	empty := PrepareQuery(&spectrum.Spectrum{ID: "e", PrecursorMZ: 400, Charge: 1}, DefaultConfig())
	if empty.occupancy != 1e-4 {
		t.Errorf("empty occupancy %v", empty.occupancy)
	}
}

func TestQuickMatchFraction(t *testing.T) {
	q := makeQuery(t, truePep, 3)
	frac := QuickMatchFraction(q, []byte(truePep), nil, DefaultConfig())
	if frac <= 0 || frac > 1 {
		t.Fatalf("true peptide quick match fraction = %v", frac)
	}
	// A peptide from a completely different mass region matches little.
	other := QuickMatchFraction(q, []byte("GGGGGG"), nil, DefaultConfig())
	if other >= frac {
		t.Errorf("unrelated peptide fraction %v >= true %v", other, frac)
	}
	if QuickMatchFraction(q, []byte("K"), nil, DefaultConfig()) != 0 {
		t.Error("single residue should have zero fraction")
	}
}

func TestHypergeomSurvivalSanity(t *testing.T) {
	if p := hypergeomSurvival(100, 10, 10, 0); p != 1 {
		t.Errorf("P(X>=0) = %v", p)
	}
	if p := hypergeomSurvival(100, 10, 10, 11); p != 0 {
		t.Errorf("P(X>=11 of 10) = %v", p)
	}
	// Monotone decreasing in k.
	prev := 1.0
	for k := 1; k <= 10; k++ {
		p := hypergeomSurvival(200, 40, 10, k)
		if p > prev+1e-12 {
			t.Errorf("survival not monotone at k=%d: %v > %v", k, p, prev)
		}
		prev = p
	}
	// Probabilities stay in [0,1].
	f := func(m8, k8, n8, x8 uint8) bool {
		M := int(m8%200) + 1
		K := int(k8) % (M + 1)
		n := int(n8) % (M + 1)
		k := int(x8) % (n + 1)
		p := hypergeomSurvival(M, K, n, k)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLogFactorial(t *testing.T) {
	if logFactorial(0) != 0 || logFactorial(1) != 0 {
		t.Error("0! and 1! should be 0 in log space")
	}
	if math.Abs(logFactorial(5)-math.Log(120)) > 1e-9 {
		t.Errorf("log 5! = %v", logFactorial(5))
	}
}

func randomPeptide(seed uint64, maxLen int) []byte {
	rng := synth.NewRNG(seed + 1)
	n := rng.Intn(maxLen) + 2
	out := make([]byte, n)
	for i := range out {
		out[i] = chem.Residues[rng.Intn(20)]
	}
	return out
}
