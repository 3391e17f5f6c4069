package score

import (
	"pepscale/internal/chem"
	"pepscale/internal/spectrum"
)

// shuffle is the allocating form of the null model's deterministic
// Fisher–Yates permutation of pep (and modDeltas, kept aligned): what
// scratch.shuffled writes into reused buffers.
func shuffle(pep []byte, modDeltas []float64, salt uint64) ([]byte, []float64) {
	out := append([]byte(nil), pep...)
	var deltas []float64
	if modDeltas != nil {
		deltas = append([]float64(nil), modDeltas...)
	}
	shuffleInPlace(out, deltas, pep, salt)
	return out, deltas
}

// NullMass returns the parent mass of the first shuffled null peptide —
// equal to the candidate's by construction.
func NullMass(pep []byte, modDeltas []float64, t chem.MassType) float64 {
	null, deltas := shuffle(pep, modDeltas, 0)
	m, _ := chem.PeptideMass(null, t)
	for _, d := range deltas {
		m += d
	}
	return m
}

// QuickMatchFraction is the prefilter's definition, evaluated per query:
// the fraction of the candidate's singly-charged b/y fragment bins that
// hold an observed peak. QuickBins and QuickMatchFromBins split it into a
// per-candidate and a per-query half.
func QuickMatchFraction(q *Query, pep []byte, modDeltas []float64, cfg Config) float64 {
	opt := cfg.Theoretical
	opt.MaxFragmentCharge = 1
	frags := spectrum.AppendFragments(nil, pep, modDeltas, 1, opt)
	if len(frags) == 0 {
		return 0
	}
	matched := 0
	for _, f := range frags {
		if _, ok := q.PeakInten(spectrum.BinIndex(f.MZ, cfg.binWidth())); ok {
			matched++
		}
	}
	return float64(matched) / float64(len(frags))
}
