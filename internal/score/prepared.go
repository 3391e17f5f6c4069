// Prepared-candidate scoring: the peptide-major batch entry points.
//
// A query-major scan regenerates a candidate's theoretical fragments and
// null-shuffle spectra for every (query, candidate) pair even though they
// depend on the query only through its precursor charge. The batched API
// inverts that: Scorer.Prepare generates the candidate's model ONCE per
// (peptide, charge) into a CandidatePrep, and Scorer.ScorePrepared scores
// each active query against the prepared state. Every score ScorePrepared
// returns is bit-identical to the corresponding Scorer.Score call.
//
// The likelihood score is model − (N1+N2+N3)/3, and each pass sums, slot
// by slot, either the matched term (0.5+0.5·intensity)·log(p1/p0) or the
// unmatched term log((1−p1)/(1−p0)). With lo and hi the weights of the
// query's least and greatest peak intensity, L = Σ min(unmatched,
// lo·matched, hi·matched) bounds any pass from below, so before null pass
// k the score is at most ub = model − (N1+…+N(k−1) + (4−k)·L)/3. When
// ub + slack is below the caller's floor (its top-τ threshold or MinScore;
// slack covers rounding, see lenTerms), ScorePrepared returns false
// without filling or scoring the remaining shuffles: Prepare
// fills only pass 0, and null pass k is filled by the first query that
// needs it. A score that is computed runs the same passes in the same
// order, so it is unchanged bit for bit.
//
// A sweep that scans the same block again and again (pepd's resident
// blocks) binds its CandidatePrep to a PrepTable slot with Use: passes the
// table already holds are read from it, and a pass filled is copied into it.
// Both kinds of prep fill through CandidatePrep.fill.
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
	// ready counts the likelihood passes filled for the current candidate:
	// Prepare fills pass 0, ScorePrepared the null passes on demand.
	ready int
	pass  [1 + nullShuffles]prepPass
	// pep and deltas are the candidate as passed to Prepare, kept for the
	// null passes the likelihood model fills later.
	pep    []byte
	deltas []float64
	// predicted is the query-independent half of the match statistics of
	// pass 0: the count of distinct predicted fragment bins.
	predicted int
	// tab and entry bind the prep to a PrepTable entry (see Use); slot is
	// the entry's slot for the current candidate. tab is nil while the prep
	// owns its passes.
	tab   *PrepTable
	entry int
	slot  int32
}

// prepPass is one prepared fragment list — the model peptide or one of its
// null shuffles — as per-slot bins in spectrum.AppendBins' order: an even
// slot holds a b-ion, the odd slot after it the y-ion of the same cleavage
// index and charge.
type prepPass struct {
	// bins is the pass: own, or a read-only view of the bound table's copy.
	bins   []int32
	own    []int32   // the fill buffer, never shared with a table
	prefix []float64 // AppendBins' prefix-mass scratch
}

// Use binds the prep to entry of tab for the candidates it prepares next:
// passes the table holds are read from it, and a pass the prep fills is
// copied into it. Every Use of one (tab, entry) must prepare the same
// peptide and deltas. A nil tab unbinds: the prep fills its own buffers.
func (prep *CandidatePrep) Use(tab *PrepTable, entry int) { prep.tab, prep.entry = tab, entry }

// begin starts a candidate with pass 0 ready: read, with any null passes
// stored after it, from the bound table entry, or else filled.
func (prep *CandidatePrep) begin(cfg Config, scr *scratch, pep []byte, modDeltas []float64, charge int) {
	prep.pepLen, prep.charge = len(pep), charge
	prep.pep, prep.deltas = pep, modDeltas
	prep.ready = 0
	if prep.tab != nil {
		prep.slot = prep.tab.slotOf(prep.entry)
		prep.ready = prep.tab.load(prep.slot, &prep.pass)
	}
	if prep.ready == 0 {
		prep.fill(cfg, scr)
	}
}

// fill generates the next pass — the model peptide for pass 0, null
// shuffle k−1 for pass k — into the pass's own buffer and, when the prep is
// bound, stores a copy in the table, which the pass then reads. AppendBins
// never writes into a slice the table holds.
func (prep *CandidatePrep) fill(cfg Config, scr *scratch) {
	k := prep.ready
	pep, deltas := prep.pep, prep.deltas
	if k > 0 {
		pep, deltas = scr.shuffled(pep, deltas, uint64(k-1))
	}
	p := &prep.pass[k]
	p.own, p.prefix = spectrum.AppendBins(p.own[:0], p.prefix, pep, deltas, prep.charge, cfg.Theoretical, cfg.binWidth())
	p.bins = p.own
	if prep.tab != nil {
		p.bins = prep.tab.store(prep.slot, k, p.own)
	}
	prep.ready++
}

// prepareSingle fills pass 0 only (the models without a null component)
// plus the query-independent predicted-bin count.
func (prep *CandidatePrep) prepareSingle(cfg Config, scr *scratch, pep []byte, modDeltas []float64, charge int) {
	prep.begin(cfg, scr, pep, modDeltas, charge)
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
	// cache line, followed by the two null-pass bound entries L and slack.
	// Tables are filled eagerly on first use (see lenTerms).
	rr [][]float64
}

// Batch wraps q for batched scoring.
func Batch(q *Query) BatchQuery { return BatchQuery{Q: q} }

// Rebind wraps q (nil: nothing) in bq, dropping the tables memoized for
// the previous query but keeping their storage for q's.
func (bq *BatchQuery) Rebind(q *Query) {
	bq.Q = q
	for i := range bq.rr {
		bq.rr[i] = bq.rr[i][:0]
	}
}

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
//
// Entries 2n and 2n+1 hold L and slack (file comment). A pass rounds by
// at most about (n+1)·u·ΣA_j, with A_j = max(|lo|,|hi|)·|rr[2j]| +
// |rr[2j+1]| and u = 2⁻⁵³, fused multiply-adds included; the bound test
// adds up four passes and L, and slack = 4·(n+8)·u·ΣA_j covers that twice.
func (bq *BatchQuery) lenTerms(pepLen, n int) []float64 {
	for len(bq.rr) <= pepLen {
		bq.rr = append(bq.rr, nil)
	}
	t := bq.rr[pepLen]
	if len(t) == 2*n+2 {
		return t
	}
	// Rebuilt from scratch rather than grown: the slot layout depends on
	// maxZ, so a table built for a smaller slot count is not a prefix of the
	// larger one. (In-contract a BatchQuery sees one fragment-charge cap —
	// its query's — and this branch runs once per pepLen and binding.)
	if cap(t) >= 2*n+2 {
		t = t[:2*n+2]
		clear(t)
	} else {
		t = make([]float64, 2*n+2)
	}
	q := bq.Q
	if pepLen >= 2 && n > 0 {
		maxZ := n / (2 * (pepLen - 1))
		p0 := q.occupancy
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
	lo, hi := 0.5+0.5*q.intenLo, 0.5+0.5*q.intenHi
	w := math.Max(math.Abs(lo), math.Abs(hi))
	var lower, mag float64
	for j := 0; j < n; j++ {
		r1, r0 := t[2*j], t[2*j+1]
		lower += math.Min(r0, math.Min(lo*r1, hi*r1))
		mag += w*math.Abs(r1) + math.Abs(r0)
	}
	t[2*n] = lower
	t[2*n+1] = 0x1p-51 * float64(n+8) * mag
	bq.rr[pepLen] = t
	return t
}

// Prepare implements Scorer: the model fragments only. The nullShuffles
// null-model fragment lists are filled by ScorePrepared when a query's
// bound first needs them.
func (s *Likelihood) Prepare(prep *CandidatePrep, pep []byte, modDeltas []float64, charge int) {
	prep.begin(s.cfg, &s.scr, pep, modDeltas, charge)
}

// ScorePrepared implements Scorer with the null-pass bound of the file
// comment. A null shuffle permutes residues but keeps the fragment (Kind,
// Index, Charge) slot structure of the model pass, so all four passes read
// one per-query log-ratio table memoized by peptide length (see
// BatchQuery.lenTerms).
//
//pepvet:hotpath
func (s *Likelihood) ScorePrepared(bq *BatchQuery, prep *CandidatePrep, floor float64) (float64, bool) {
	n := len(prep.pass[0].bins)
	rr := bq.lenTerms(prep.pepLen, n)
	lower, slack := rr[2*n], rr[2*n+1]
	model := likelihoodPassCached(bq.Q, &prep.pass[0], rr)
	var null float64
	for k := 1; k <= nullShuffles; k++ {
		if model-(null+float64(nullShuffles+1-k)*lower)/nullShuffles+slack < floor {
			return 0, false
		}
		if k == prep.ready {
			prep.fill(s.cfg, &s.scr)
		}
		null += likelihoodPassCached(bq.Q, &prep.pass[k], rr)
	}
	return model - null/nullShuffles, true
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
func (s *Hyper) ScorePrepared(bq *BatchQuery, prep *CandidatePrep, _ float64) (float64, bool) {
	return hyperFromStats(s.scr.matchPrepared(bq.Q, prep)), true
}

// Prepare implements Scorer.
func (s *SharedPeaks) Prepare(prep *CandidatePrep, pep []byte, modDeltas []float64, charge int) {
	prep.prepareSingle(s.cfg, &s.scr, pep, modDeltas, charge)
}

// ScorePrepared implements Scorer.
//
//pepvet:hotpath
func (s *SharedPeaks) ScorePrepared(bq *BatchQuery, prep *CandidatePrep, _ float64) (float64, bool) {
	return sharedPeaksFromStats(bq.Q, s.scr.matchPrepared(bq.Q, prep)), true
}

// Prepare implements Scorer.
func (s *XCorr) Prepare(prep *CandidatePrep, pep []byte, modDeltas []float64, charge int) {
	prep.prepareSingle(s.cfg, &s.scr, pep, modDeltas, charge)
}

// ScorePrepared implements Scorer.
//
//pepvet:hotpath
func (s *XCorr) ScorePrepared(bq *BatchQuery, prep *CandidatePrep, _ float64) (float64, bool) {
	q := bq.Q
	bins := prep.pass[0].bins
	if len(bins) == 0 {
		return 0, true
	}
	q.buildXCorr()
	var sum float64
	for _, bin := range bins {
		sum += q.xcorrAt(bin)
	}
	return sum * 0.1, true
}

// QuickBins fills bins with the singly-charged b/y fragment bins of the
// candidate — the query-independent half of the X!!Tandem-style prefilter
// — so a sweep can test many queries against one candidate without
// regenerating fragments. prefix is spectrum.AppendBins' reused scratch;
// both slices are truncated, filled, and returned.
//
//pepvet:hotpath
func QuickBins(bins []int32, prefix []float64, pep []byte, modDeltas []float64, cfg Config) ([]int32, []float64) {
	opt := cfg.Theoretical
	opt.MaxFragmentCharge = 1
	return spectrum.AppendBins(bins[:0], prefix, pep, modDeltas, 1, opt, cfg.binWidth())
}

// QuickMatchFromBins is the prefilter's per-query half: the fraction of
// the candidate's QuickBins that hold an observed peak, a small fraction of
// the cost of a full model evaluation.
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
