package spectrum

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"pepscale/internal/chem"
)

func TestParentMass(t *testing.T) {
	s := &Spectrum{PrecursorMZ: chem.MZ(1500, 2), Charge: 2}
	if math.Abs(s.ParentMass()-1500) > 1e-9 {
		t.Errorf("ParentMass = %v, want 1500", s.ParentMass())
	}
}

func TestSortAndBasePeak(t *testing.T) {
	s := &Spectrum{Peaks: []Peak{{300, 5}, {100, 50}, {200, 10}}}
	s.Sort()
	if s.Peaks[0].MZ != 100 || s.Peaks[2].MZ != 300 {
		t.Errorf("Sort: %+v", s.Peaks)
	}
	if s.BasePeak().MZ != 100 {
		t.Errorf("BasePeak: %+v", s.BasePeak())
	}
	if s.TotalIntensity() != 65 {
		t.Errorf("TotalIntensity = %v", s.TotalIntensity())
	}
}

func TestBinning(t *testing.T) {
	s := &Spectrum{Peaks: []Peak{{100.0, 1}, {100.3, 2}, {101.2, 4}}}
	b := Bin(s, 1.0)
	if len(b.Bins) != 2 {
		t.Fatalf("bins: %v", b.Bins)
	}
	if b.Bins[100] != 3 { // 100.0 and 100.3 share bin 100
		t.Errorf("bin 100 = %v", b.Bins[100])
	}
	if b.Bins[101] != 4 {
		t.Errorf("bin 101 = %v", b.Bins[101])
	}
	b.Normalize()
	if b.Bins[101] != 1 || math.Abs(b.Bins[100]-0.75) > 1e-12 {
		t.Errorf("normalize: %v", b.Bins)
	}
}

func TestBinDefaultWidth(t *testing.T) {
	s := &Spectrum{Peaks: []Peak{{500, 1}}}
	b := Bin(s, 0)
	if b.Width != DefaultBinWidth {
		t.Errorf("width = %v", b.Width)
	}
}

func TestOccupancy(t *testing.T) {
	s := &Spectrum{Peaks: []Peak{{100, 1}, {104, 1}}}
	b := Bin(s, 1.0)
	// Bins 100 and 104: occupancy 2/5.
	if math.Abs(b.Occupancy()-0.4) > 1e-12 {
		t.Errorf("Occupancy = %v", b.Occupancy())
	}
	empty := Bin(&Spectrum{}, 1.0)
	if empty.Occupancy() != 0 {
		t.Error("empty occupancy should be 0")
	}
}

func TestPreprocess(t *testing.T) {
	s := &Spectrum{Peaks: []Peak{
		{100, 100}, {101, 1}, {102, 2}, {103, 3}, {150, 0.01},
	}}
	out := Preprocess(s, PreprocessOptions{TopPeaksPerWindow: 2, WindowWidth: 100, SqrtIntensity: true})
	if len(out.Peaks) != 2 {
		t.Fatalf("kept %d peaks, want 2", len(out.Peaks))
	}
	if out.Peaks[0].Intensity != 10 { // sqrt(100)
		t.Errorf("sqrt transform: %v", out.Peaks[0].Intensity)
	}
	if len(s.Peaks) != 5 {
		t.Error("Preprocess mutated input")
	}
}

func TestPreprocessMinRelative(t *testing.T) {
	s := &Spectrum{Peaks: []Peak{{100, 100}, {101, 0.5}}}
	out := Preprocess(s, PreprocessOptions{MinRelativeIntensity: 0.004})
	if len(out.Peaks) != 2 {
		t.Error("0.5 >= 0.4% of base should survive")
	}
	out = Preprocess(s, PreprocessOptions{MinRelativeIntensity: 0.1})
	if len(out.Peaks) != 1 {
		t.Error("0.5 < 10% of base should be dropped")
	}
}

func TestFragmentComplementarity(t *testing.T) {
	// For every cleavage i: neutral(b_i) + neutral(y_{n-i}) = parent mass.
	pep := []byte("MKVLAGHWK")
	opt := TheoreticalOptions{MassType: chem.Mono, MaxFragmentCharge: 1}
	frags := Fragments(pep, nil, 2, opt)
	parent, _ := chem.PeptideMass(pep, chem.Mono)
	b := map[int]float64{}
	y := map[int]float64{}
	for _, f := range frags {
		if f.Charge != 1 {
			continue
		}
		neutral := chem.NeutralFromMZ(f.MZ, 1)
		if f.Kind == BIon {
			b[f.Index] = neutral
		} else {
			y[f.Index] = neutral
		}
	}
	n := len(pep)
	for i := 1; i < n; i++ {
		sum := b[i] + y[n-i]
		if math.Abs(sum-parent) > 1e-6 {
			t.Errorf("b_%d + y_%d = %v, want parent %v", i, n-i, sum, parent)
		}
	}
}

func TestFragmentCounts(t *testing.T) {
	pep := []byte("PEPTIDEK")
	frags := Fragments(pep, nil, 3, TheoreticalOptions{MassType: chem.Mono, MaxFragmentCharge: 2})
	// n-1 cleavages × 2 series × 2 charges.
	want := (len(pep) - 1) * 2 * 2
	if len(frags) != want {
		t.Errorf("got %d fragments, want %d", len(frags), want)
	}
	// Precursor charge 2 caps fragments at charge 1.
	frags = Fragments(pep, nil, 2, TheoreticalOptions{MassType: chem.Mono, MaxFragmentCharge: 2})
	for _, f := range frags {
		if f.Charge > 1 {
			t.Fatalf("fragment charge %d with precursor charge 2", f.Charge)
		}
	}
}

func TestFragmentsTinyPeptide(t *testing.T) {
	if Fragments([]byte("K"), nil, 2, DefaultTheoretical) != nil {
		t.Error("single residue should yield no fragments")
	}
	if Fragments(nil, nil, 2, DefaultTheoretical) != nil {
		t.Error("empty peptide should yield no fragments")
	}
}

func TestFragmentsWithMods(t *testing.T) {
	pep := []byte("AMK")
	delta := 15.9949
	plain := Fragments(pep, nil, 2, TheoreticalOptions{MassType: chem.Mono, MaxFragmentCharge: 1})
	mod := Fragments(pep, []float64{0, delta, 0}, 2, TheoreticalOptions{MassType: chem.Mono, MaxFragmentCharge: 1})
	// b1 (A) unaffected; b2 (AM) shifted by delta; y1 (K) unaffected;
	// y2 (MK) shifted.
	get := func(fs []Fragment, k FragmentKind, idx int) float64 {
		for _, f := range fs {
			if f.Kind == k && f.Index == idx {
				return f.MZ
			}
		}
		t.Fatalf("missing %v%d", k, idx)
		return 0
	}
	if math.Abs(get(mod, BIon, 1)-get(plain, BIon, 1)) > 1e-9 {
		t.Error("b1 shifted unexpectedly")
	}
	if math.Abs(get(mod, BIon, 2)-get(plain, BIon, 2)-delta) > 1e-9 {
		t.Error("b2 not shifted by delta")
	}
	if math.Abs(get(mod, YIon, 2)-get(plain, YIon, 2)-delta) > 1e-9 {
		t.Error("y2 not shifted by delta")
	}
}

// TestAppendBinsMatchesFragments is AppendBins' contract: across precursor
// and fragment charges, modifications, both mass scales and the degenerate
// lengths, it yields exactly the BinIndex of every AppendFragments m/z,
// appended after what dst already holds, with the scratch reused from one
// peptide to the next.
func TestAppendBinsMatchesFragments(t *testing.T) {
	const residues = "ACDEFGHIKLMNPQRSTVWY"
	rng := rand.New(rand.NewPCG(5, 9))
	var got []int32
	var prefix []float64
	for trial := 0; trial < 200; trial++ {
		n := []int{0, 1, 2, 3, 40}[trial%5]
		pep := make([]byte, n)
		for i := range pep {
			pep[i] = residues[rng.IntN(len(residues))]
		}
		var mods []float64
		if trial%3 == 0 {
			mods = make([]float64, n)
			for i := range mods {
				if rng.IntN(4) == 0 {
					mods[i] = 79.96633 * rng.Float64()
				}
			}
		}
		opt := TheoreticalOptions{MassType: chem.Mono, MaxFragmentCharge: 1 + rng.IntN(4)}
		if trial%2 == 1 {
			opt.MassType = chem.Average
		}
		z := 1 + rng.IntN(4)
		head := []int32{-7}
		want := head
		for _, f := range AppendFragments(nil, pep, mods, z, opt) {
			want = append(want, BinIndex(f.MZ, DefaultBinWidth))
		}
		got, prefix = AppendBins(append(got[:0], head...), prefix, pep, mods, z, opt, DefaultBinWidth)
		if !slices.Equal(got, want) {
			t.Fatalf("pep %s mods %v z %d opt %+v:\nAppendBins %v\nfragments  %v", pep, mods, z, opt, got, want)
		}
	}
}

func TestTheoreticalSpectrum(t *testing.T) {
	pep := []byte("LLNANVVNVEQIEHEK")
	s := Theoretical("model", pep, nil, 2, DefaultTheoretical)
	if len(s.Peaks) == 0 {
		t.Fatal("no peaks")
	}
	parent, _ := chem.PeptideMass(pep, chem.Mono)
	if math.Abs(s.ParentMass()-parent) > 1e-6 {
		t.Errorf("precursor: %v vs %v", s.ParentMass(), parent)
	}
	// Sorted by m/z.
	for i := 1; i < len(s.Peaks); i++ {
		if s.Peaks[i].MZ < s.Peaks[i-1].MZ {
			t.Fatal("peaks not sorted")
		}
	}
	// y-ions should dominate intensity over matching b-ions.
	withLosses := Theoretical("m2", pep, nil, 2, TheoreticalOptions{MassType: chem.Mono, MaxFragmentCharge: 1, NeutralLosses: true})
	if len(withLosses.Peaks) <= len(Theoretical("m3", pep, nil, 2, TheoreticalOptions{MassType: chem.Mono, MaxFragmentCharge: 1}).Peaks) {
		t.Error("neutral losses should add peaks")
	}
}

func TestBinIndexMonotonic(t *testing.T) {
	f := func(a, b uint32) bool {
		x := float64(a%4_000_000) / 1000
		y := float64(b%4_000_000) / 1000
		if x > y {
			x, y = y, x
		}
		return BinIndex(x, DefaultBinWidth) <= BinIndex(y, DefaultBinWidth)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
