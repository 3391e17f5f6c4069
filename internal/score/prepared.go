// Prepared-candidate scoring: the peptide-major batch entry points.
//
// A query-major scan regenerates a candidate's theoretical fragments and
// null-shuffle spectra for every (query, candidate) pair even though they
// depend on the query only through its precursor charge. The batched API
// inverts that: Scorer.Prepare generates the candidate's model ONCE per
// (peptide, charge) into a CandidatePrep, and Scorer.ScorePrepared scores
// each active query against the prepared state. Every ScorePrepared result
// is bit-identical to the corresponding Scorer.Score call.
package score

import (
	"math"

	"pepscale/internal/spectrum"
)

// CandidatePrep holds the prepared form of one candidate at one precursor
// charge: the fragment bins of the model peptide (and, for the likelihood
// model, of its deterministic null shuffles). All buffers are recycled
// across candidates, so a warmed Prepare/ScorePrepared cycle performs zero
// heap allocations. A CandidatePrep belongs to the sweep of one rank and is
// not safe for concurrent use.
//
//pepvet:perrank
type CandidatePrep struct {
	pepLen int
	charge int
	nPass  int
	pass   [1 + nullShuffles]prepPass
	// predicted is the query-independent half of the match statistics of
	// pass 0: the count of distinct predicted fragment bins.
	predicted int
}

// prepPass is one prepared fragment list — the model peptide or one of its
// null shuffles — as per-slot bins in spectrum.AppendBins' order: an even
// slot holds a b-ion, the odd slot after it the y-ion of the same cleavage
// index and charge.
type prepPass struct {
	bins   []int32
	prefix []float64 // AppendBins' prefix-mass scratch
}

// fill populates the pass for (pep, deltas) at the given precursor charge,
// reusing the pass buffers.
func (p *prepPass) fill(cfg Config, charge int, pep []byte, deltas []float64) {
	p.bins, p.prefix = spectrum.AppendBins(p.bins[:0], p.prefix, pep, deltas, charge, cfg.Theoretical, cfg.binWidth())
}

// prepareSingle fills pass 0 only (the models without a null component)
// plus the query-independent predicted-bin count.
func (prep *CandidatePrep) prepareSingle(cfg Config, scr *scratch, pep []byte, modDeltas []float64, charge int) {
	prep.pepLen = len(pep)
	prep.charge = charge
	prep.nPass = 1
	prep.pass[0].fill(cfg, charge, pep, modDeltas)
	scr.pred.reset()
	prep.predicted = 0
	for _, bin := range prep.pass[0].bins {
		if scr.pred.add(bin) {
			prep.predicted++
		}
	}
}

// BatchQuery pairs a shared, immutable Query with the mutable per-sweep
// scoring state a batched scan maintains on its behalf. Unlike the Query
// itself, a BatchQuery is owned by one rank's sweep and is not safe for
// concurrent use.
//
// For the likelihood model it memoizes the log-ratio terms by candidate
// length: on the generation path the fragment slot structure — and with it
// each slot's model confidence p1 — is a pure function of (peptide length,
// slot) for a fixed precursor charge, so log(p1/p0) and log((1−p1)/(1−p0))
// depend only on (query, length, slot) and stay valid across candidates.
// The sweep therefore pays math.Log once per (query, length, slot) instead
// of once per (candidate, slot).
//
//pepvet:perrank
type BatchQuery struct {
	// Q is the wrapped query.
	Q *Query
	// rr holds the memoized log-ratio terms indexed [pepLen], interleaved as
	// rr[pepLen][2·slot] = log(p1/p0) and rr[pepLen][2·slot+1] =
	// log((1−p1)/(1−p0)), so a slot's matched and unmatched terms share a
	// cache line. Tables are filled eagerly on first use (see lenTerms).
	rr [][]float64
}

// Batch wraps q for batched scoring.
func Batch(q *Query) BatchQuery { return BatchQuery{Q: q} }

// lenTerms returns the interleaved log-ratio table for candidates of length
// pepLen with n fragment slots, building it eagerly on first use. For a
// fixed query charge, n is a pure function of pepLen, so after one sweep
// warm-up no further allocation occurs.
//
// Eager filling is possible because the generation path's slot layout is
// closed-form: AppendFragments emits, for each cleavage index i (1-based)
// and fragment charge z up to maxZ = n/(2·(pepLen−1)), the b-ion at slot
// (i−1)·2·maxZ + 2·(z−1) and the y-ion at the slot after it — independent
// of residue masses. Each term is the identical expression the lazy
// per-slot fill evaluated, so scores are unchanged bit-for-bit; what the
// eager build buys is branch-free table reads on the scan hot paths.
func (bq *BatchQuery) lenTerms(pepLen, n int) []float64 {
	for len(bq.rr) <= pepLen {
		bq.rr = append(bq.rr, nil)
	}
	t := bq.rr[pepLen]
	if len(t) >= 2*n {
		return t
	}
	// Rebuilt from scratch rather than grown: the slot layout depends on
	// maxZ, so a table built for a smaller slot count is not a prefix of the
	// larger one. (In-contract a BatchQuery sees one fragment-charge cap —
	// its query's — and this branch runs once per pepLen.)
	t = make([]float64, 2*n)
	if pepLen >= 2 && n > 0 {
		maxZ := n / (2 * (pepLen - 1))
		p0 := bq.Q.occupancy
		s := 0
		for i := 1; i < pepLen; i++ {
			for z := 1; z <= maxZ; z++ {
				for _, kind := range [2]spectrum.FragmentKind{spectrum.BIon, spectrum.YIon} {
					f := spectrum.Fragment{Kind: kind, Index: i, Charge: z}
					p1 := 0.30 + 0.55*fragConfidence(f, pepLen)
					t[s] = math.Log(p1 / p0)
					t[s+1] = math.Log((1 - p1) / (1 - p0))
					s += 2
				}
			}
		}
	}
	bq.rr[pepLen] = t
	return t
}

// Prepare implements Scorer: the model fragments plus the nullShuffles
// null-model fragment lists, generated once for every query of the charge.
func (s *Likelihood) Prepare(prep *CandidatePrep, pep []byte, modDeltas []float64, charge int) {
	prep.pepLen = len(pep)
	prep.charge = charge
	prep.nPass = 1 + nullShuffles
	prep.pass[0].fill(s.cfg, charge, pep, modDeltas)
	for k := uint64(0); k < nullShuffles; k++ {
		nullPep, nullDeltas := s.scr.shuffled(pep, modDeltas, k)
		prep.pass[1+k].fill(s.cfg, charge, nullPep, nullDeltas)
	}
}

// ScorePrepared implements Scorer; bit-identical to Score for the prepared
// candidate when bq.Q's precursor charge equals the prepared charge. A null
// shuffle permutes residues but keeps the fragment (Kind, Index, Charge)
// slot structure of the model pass, so all four passes read one per-query
// log-ratio table memoized by peptide length (see BatchQuery.lenTerms).
//
//pepvet:hotpath
func (s *Likelihood) ScorePrepared(bq *BatchQuery, prep *CandidatePrep) float64 {
	rr := bq.lenTerms(prep.pepLen, len(prep.pass[0].bins))
	model := likelihoodPassCached(bq.Q, &prep.pass[0], rr)
	var null float64
	for k := 1; k <= nullShuffles; k++ {
		null += likelihoodPassCached(bq.Q, &prep.pass[k], rr)
	}
	return model - null/nullShuffles
}

// likelihoodPassCached accumulates one pass's log-likelihood from the
// eagerly built per-(query, length) term table; identical term values and
// accumulation order as Likelihood.logLikelihood.
//
//pepvet:hotpath
func likelihoodPassCached(q *Query, p *prepPass, rr []float64) float64 {
	var ll float64
	for j, bin := range p.bins {
		if inten, ok := q.PeakInten(bin); ok {
			ll += (0.5 + 0.5*inten) * rr[2*j]
		} else {
			ll += rr[2*j+1]
		}
	}
	return ll
}

// matchPrepared is scratch.match over a prepared candidate: the
// query-independent predicted-bin half comes from the prep, so only the
// query-dependent statistics are accumulated.
//
//pepvet:hotpath
func (sc *scratch) matchPrepared(q *Query, prep *CandidatePrep) matchStats {
	bins := prep.pass[0].bins
	st := matchStats{predicted: prep.predicted, nFrag: len(bins)}
	sc.matched.reset()
	for j, bin := range bins {
		if inten, ok := q.PeakInten(bin); ok {
			st.dot += inten
			if j&1 == 0 { // b-ion slot (see prepPass)
				st.bMatched++
			} else {
				st.yMatched++
			}
			if sc.matched.add(bin) {
				st.distinct++
			}
		}
	}
	return st
}

// Prepare implements Scorer.
func (s *Hyper) Prepare(prep *CandidatePrep, pep []byte, modDeltas []float64, charge int) {
	prep.prepareSingle(s.cfg, &s.scr, pep, modDeltas, charge)
}

// ScorePrepared implements Scorer.
//
//pepvet:hotpath
func (s *Hyper) ScorePrepared(bq *BatchQuery, prep *CandidatePrep) float64 {
	return hyperFromStats(s.scr.matchPrepared(bq.Q, prep))
}

// Prepare implements Scorer.
func (s *SharedPeaks) Prepare(prep *CandidatePrep, pep []byte, modDeltas []float64, charge int) {
	prep.prepareSingle(s.cfg, &s.scr, pep, modDeltas, charge)
}

// ScorePrepared implements Scorer.
//
//pepvet:hotpath
func (s *SharedPeaks) ScorePrepared(bq *BatchQuery, prep *CandidatePrep) float64 {
	return sharedPeaksFromStats(bq.Q, s.scr.matchPrepared(bq.Q, prep))
}

// Prepare implements Scorer.
func (s *XCorr) Prepare(prep *CandidatePrep, pep []byte, modDeltas []float64, charge int) {
	prep.prepareSingle(s.cfg, &s.scr, pep, modDeltas, charge)
}

// ScorePrepared implements Scorer.
//
//pepvet:hotpath
func (s *XCorr) ScorePrepared(bq *BatchQuery, prep *CandidatePrep) float64 {
	q := bq.Q
	bins := prep.pass[0].bins
	if len(bins) == 0 {
		return 0
	}
	q.buildXCorr()
	var sum float64
	for _, bin := range bins {
		sum += q.xcorrAt(bin)
	}
	return sum * 0.1
}

// QuickBins fills bins with the singly-charged prefilter fragment bins of
// the candidate — the query-independent half of QuickMatchFractionBuf — so
// a sweep can test many queries against one candidate without regenerating
// fragments. prefix is spectrum.AppendBins' reused scratch; both slices are
// truncated, filled, and returned.
//
//pepvet:hotpath
func QuickBins(bins []int32, prefix []float64, pep []byte, modDeltas []float64, cfg Config) ([]int32, []float64) {
	opt := cfg.Theoretical
	opt.MaxFragmentCharge = 1
	return spectrum.AppendBins(bins[:0], prefix, pep, modDeltas, 1, opt, cfg.binWidth())
}

// QuickMatchFromBins returns exactly QuickMatchFraction given the
// candidate's precomputed QuickBins.
//
//pepvet:hotpath
func QuickMatchFromBins(q *Query, bins []int32) float64 {
	if len(bins) == 0 {
		return 0
	}
	matched := 0
	for _, b := range bins {
		if _, ok := q.PeakInten(b); ok {
			matched++
		}
	}
	return float64(matched) / float64(len(bins))
}
