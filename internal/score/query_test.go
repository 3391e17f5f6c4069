package score

import (
	"math"
	"runtime"
	"testing"

	"pepscale/internal/spectrum"
)

// rawQueries are the spectra the query-form tests prepare: realistic ones,
// an empty one, one peak, and one binned at width 1 with no conditioning
// whose bins 1000–1100 fill a 64-bin word and whose peaks at 2000 and 2500
// leave empty words between them.
func rawQueries() map[string]*spectrum.Spectrum {
	wide := &spectrum.Spectrum{ID: "wide", PrecursorMZ: 900, Charge: 2}
	for mz := 1000; mz <= 1100; mz++ {
		wide.Peaks = append(wide.Peaks, spectrum.Peak{MZ: float64(mz), Intensity: float64(mz % 7)})
	}
	wide.Peaks = append(wide.Peaks, spectrum.Peak{MZ: 2000, Intensity: 3}, spectrum.Peak{MZ: 2500, Intensity: 9})
	return map[string]*spectrum.Spectrum{
		"realistic-3":  makeQueryRaw(3),
		"realistic-21": makeQueryRaw(21),
		"empty":        {ID: "empty", PrecursorMZ: 600, Charge: 2},
		"one-peak":     {ID: "one", PrecursorMZ: 600, Charge: 2, Peaks: []spectrum.Peak{{MZ: 431.2, Intensity: 4}}},
		"wide":         wide,
	}
}

// rawConfig is the configuration rawQueries' "wide" spectrum is prepared
// with: width-1 bins and every peak kept as it is.
func rawConfig() Config {
	cfg := DefaultConfig()
	cfg.BinWidth = 1
	cfg.Preprocess = spectrum.PreprocessOptions{}
	return cfg
}

// TestPeakIntenMatchesColumns: the bitmap answers every bin within 70 of
// the span, and the extreme bins, exactly as a linear search over the
// binned columns does — the same bit pattern for an occupied bin, (0,
// false) for any other — across full and empty 64-bin words and an empty
// spectrum.
func TestPeakIntenMatchesColumns(t *testing.T) {
	sawFull, sawEmpty := false, false
	for name, raw := range rawQueries() {
		cfg := DefaultConfig()
		if name == "wide" {
			cfg = rawConfig()
		}
		q := PrepareQuery(raw, cfg)
		b := q.Binned
		lo, hi := int64(b.MinBin)-70, int64(b.MaxBin)+70
		if len(b.Bins) == 0 {
			lo, hi = -70, 3000
		}
		check := func(bin int32) {
			want, wantOK := 0.0, false
			for k, x := range b.Bins {
				if x == bin {
					want, wantOK = b.Inten[k], true
				}
			}
			got, ok := q.PeakInten(bin)
			if ok != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: PeakInten(%d) = (%v, %v), want (%v, %v)", name, bin, got, ok, want, wantOK)
			}
		}
		for bin := lo; bin <= hi; bin++ {
			check(int32(bin))
		}
		check(math.MinInt32)
		check(math.MaxInt32)
		for _, w := range q.occ {
			sawFull = sawFull || w.bits == math.MaxUint64
			sawEmpty = sawEmpty || w.bits == 0
		}
	}
	if !sawFull || !sawEmpty {
		t.Fatalf("the spectra cover a full word: %v, an empty word: %v; want both", sawFull, sawEmpty)
	}
}

// denseXCorr is XCorr's background-corrected array built over a dense copy
// of the bins with a dense prefix sum: corrected[i] is bin lo+i.
func denseXCorr(b *spectrum.Binned) (lo int32, corrected []float64) {
	lo = b.MinBin - corrWindow - 1
	n := int(b.MaxBin-b.MinBin) + 2*corrWindow + 3
	dense := make([]float64, n)
	for k, bin := range b.Bins {
		dense[bin-lo] = b.Inten[k]
	}
	prefix := make([]float64, n+1)
	for i, y := range dense {
		prefix[i+1] = prefix[i] + y
	}
	corrected = make([]float64, n)
	for i := range dense {
		wLo, wHi := max(i-corrWindow, 0), min(i+corrWindow+1, n)
		corrected[i] = dense[i] - (prefix[wHi]-prefix[wLo])/float64(2*corrWindow+1)
	}
	return lo, corrected
}

// TestXCorrMatchesDense: the corrected array built from the columns equals,
// bit for bit, the one built over a dense copy of the bins.
func TestXCorrMatchesDense(t *testing.T) {
	for name, raw := range rawQueries() {
		cfg := DefaultConfig()
		if name == "wide" {
			cfg = rawConfig()
		}
		q := PrepareQuery(raw, cfg)
		q.buildXCorr()
		if len(q.Binned.Bins) == 0 {
			if q.xc.corrected != nil {
				t.Errorf("%s: corrected array for an empty spectrum", name)
			}
			continue
		}
		lo, want := denseXCorr(q.Binned)
		if q.xc.base != lo || len(q.xc.corrected) != len(want) {
			t.Fatalf("%s: array at %d of %d bins, want %d of %d", name, q.xc.base, len(q.xc.corrected), lo, len(want))
		}
		for i, w := range want {
			if math.Float64bits(q.xc.corrected[i]) != math.Float64bits(w) {
				t.Fatalf("%s: corrected[bin %d] = %v, want %v", name, int(lo)+i, q.xc.corrected[i], w)
			}
		}
	}
}

// allocBytes returns the bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWidestQueryAllocBound: a spectrum spanning the whole accepted m/z
// range, [0, spectrum.MaxPeakMZ], prepares in under 40 KiB (its bitmap is
// 16 B per 64 bins, 25 KB; 27.7 KB in all) and its first XCorr score
// allocates under 900 KB (the corrected array, 8 B per bin of the span).
// The bounds leave room for allocations of other goroutines, which
// TotalAlloc counts too. A query whose intensities are held 8 B per bin of
// the span, 800 KB here, or whose span is not bounded, fails.
func TestWidestQueryAllocBound(t *testing.T) {
	raw := &spectrum.Spectrum{ID: "widest", PrecursorMZ: 900, Charge: 2, Peaks: []spectrum.Peak{{MZ: 0, Intensity: 1}, {MZ: spectrum.MaxPeakMZ, Intensity: 2}}}
	if err := raw.Check(); err != nil {
		t.Fatal(err)
	}
	var q *Query
	if got := allocBytes(func() { q = PrepareQuery(raw, DefaultConfig()) }); got > 40<<10 {
		t.Errorf("PrepareQuery allocated %d B at the widest span, want at most %d", got, 40<<10)
	}
	xc, _ := New("xcorr", DefaultConfig())
	if got := allocBytes(func() { xc.Score(q, []byte(truePep), nil) }); got > 900_000 {
		t.Errorf("first XCorr.Score allocated %d B at the widest span, want at most 900,000", got)
	}
}

// BenchmarkPrepareQuery times conditioning, binning and indexing one
// synthetic spectrum of 33 peaks over 1,602 bins.
func BenchmarkPrepareQuery(b *testing.B) {
	raw := makeQueryRaw(21)
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchQuery = PrepareQuery(raw, cfg)
	}
}

var benchQuery *Query
