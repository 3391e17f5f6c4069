package score

import (
	"sync"

	"pepscale/internal/spectrum"
)

// XCorr is a Sequest-style cross-correlation scorer (Eng, McCormack &
// Yates 1994 — reference [11] of the paper): the dot product between the
// theoretical fragment spectrum and a background-corrected experimental
// spectrum, where the correction subtracts the mean correlation over a
// ±corrWindow bin displacement. The subtraction removes the score
// inflation that dense spectra give to any candidate, which is what made
// XCorr the de-facto standard of the Sequest era.
type XCorr struct {
	cfg Config
	scr scratch
}

// corrWindow is the displacement half-width (bins) of the background
// correction, the standard 75.
const corrWindow = 75

// Name implements Scorer.
func (s *XCorr) Name() string { return "xcorr" }

// Cost implements Scorer.
func (s *XCorr) Cost() float64 { return 1.1 }

// Score implements Scorer.
func (s *XCorr) Score(q *Query, pep []byte, modDeltas []float64) float64 {
	s.scr.frags = spectrum.AppendFragments(s.scr.frags[:0], pep, modDeltas, q.Charge, s.cfg.Theoretical)
	frags := s.scr.frags
	if len(frags) == 0 {
		return 0
	}
	q.buildXCorr()
	width := s.cfg.binWidth()
	var sum float64
	for _, f := range frags {
		sum += q.xcorrAt(spectrum.BinIndex(f.MZ, width))
	}
	// Sequest scales raw correlation by 1e-4; binned unit intensities make
	// a 1e-1 scale read naturally here.
	return sum * 0.1
}

// xcorr holds the query's lazily built background-corrected intensity
// array: corrected[b] = y[b] − mean(y[b−75 … b+75]).
type xcorr struct {
	once      sync.Once
	base      int32 // bin index of corrected[0]
	corrected []float64
}

// buildXCorr computes the corrected array once per query (thread-safe;
// queries are shared across scan iterations).
func (q *Query) buildXCorr() {
	//pepvet:allow allocflow once-per-query lazy build: the sync.Once capture and dense buffers amortize across every candidate scored against the query, off the per-candidate path
	q.xc.once.Do(func() {
		b := q.Binned
		if b.MaxBin < b.MinBin {
			return
		}
		lo := b.MinBin - corrWindow - 1
		hi := b.MaxBin + corrWindow + 1
		n := int(hi-lo) + 1
		dense := make([]float64, n)
		//pepvet:allow determinism scatter into a dense array: each map key writes its own slot, so iteration order cannot escape
		for bin, y := range b.Bins {
			dense[bin-lo] = y
		}
		// Prefix sums for O(1) window means.
		prefix := make([]float64, n+1)
		for i, y := range dense {
			prefix[i+1] = prefix[i] + y
		}
		corrected := make([]float64, n)
		for i := range dense {
			wLo := i - corrWindow
			if wLo < 0 {
				wLo = 0
			}
			wHi := i + corrWindow + 1
			if wHi > n {
				wHi = n
			}
			mean := (prefix[wHi] - prefix[wLo]) / float64(2*corrWindow+1)
			corrected[i] = dense[i] - mean
		}
		q.xc.base = lo
		q.xc.corrected = corrected
	})
}

// xcorrAt returns the corrected intensity at a bin (0 outside the array).
func (q *Query) xcorrAt(bin int32) float64 {
	i := int(bin - q.xc.base)
	if q.xc.corrected == nil || i < 0 || i >= len(q.xc.corrected) {
		return 0
	}
	return q.xc.corrected[i]
}
