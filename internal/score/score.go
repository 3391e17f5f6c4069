// Package score implements the statistical models that decide how well a
// candidate peptide explains an experimental spectrum.
//
// Four models are provided, mirroring the model families compared by
// Cannon et al. (J. Proteome Research 2005), the study MSPolygraph was
// built from, plus the Sequest-era standard:
//
//   - Likelihood: the MSPolygraph-style log-likelihood-ratio score. A model
//     spectrum is generated for the candidate and a second spectrum for a
//     random (deterministically shuffled) peptide of the same composition;
//     both are compared against the experimental spectrum under a Poisson
//     peak-occurrence model and the score is the difference. This is the
//     "highly accurate statistical model" whose cost motivates the paper.
//   - Hyper: an X!Tandem-style hyperscore (matched-intensity dot product
//     scaled by b/y match-count factorials) — the "fairly simple, fast
//     statistical model" of the X!!Tandem comparison.
//   - SharedPeaks: a hypergeometric shared-peak-count model.
//   - XCorr: a Sequest-style cross-correlation against a
//     background-corrected experimental spectrum (see xcorr.go).
//
// All scorers are deterministic: identical inputs yield bit-identical
// scores on every rank of the distributed engines.
package score

import (
	"fmt"
	"math"
	"sync"

	"pepscale/internal/chem"
	"pepscale/internal/spectrum"
	"pepscale/internal/xhash"
)

// Config carries the shared scoring configuration.
type Config struct {
	// BinWidth is the fragment m/z bin width (default spectrum.DefaultBinWidth).
	BinWidth float64
	// Theoretical controls on-the-fly model spectrum generation.
	Theoretical spectrum.TheoreticalOptions
	// Preprocess conditions experimental spectra before binning.
	Preprocess spectrum.PreprocessOptions
}

// DefaultConfig returns the engine defaults.
func DefaultConfig() Config {
	return Config{
		BinWidth:    spectrum.DefaultBinWidth,
		Theoretical: spectrum.DefaultTheoretical,
		Preprocess:  spectrum.DefaultPreprocess,
	}
}

func (c Config) binWidth() float64 {
	if c.BinWidth <= 0 {
		return spectrum.DefaultBinWidth
	}
	return c.BinWidth
}

// Query is a preprocessed, binned experimental spectrum ready for repeated
// scoring. Queries are immutable after PrepareQuery and safe for concurrent
// use.
type Query struct {
	// ID is the spectrum identifier.
	ID string
	// ParentMass is the neutral parent mass m(q).
	ParentMass float64
	// Charge is the precursor charge state.
	Charge int
	// Binned is the conditioned, normalized sparse binning.
	Binned *spectrum.Binned
	// occupancy is the background bin-occupancy probability.
	occupancy float64
	// numPeaks is the count of occupied bins.
	numPeaks int
	// denseLo/dense mirror Binned.Bins as a dense intensity table over
	// [MinBin, MaxBin] (NaN marks an empty bin), turning the per-fragment
	// map probe of the scoring kernel into an array index.
	denseLo int32
	dense   []float64
	// xc is the lazily built XCorr background-corrected array.
	xc xcorr
}

// denseSpanCap bounds the dense table size; pathological spectra with a
// wider bin span fall back to the map.
const denseSpanCap = 1 << 20

// PeakInten returns the normalized intensity at bin and whether the bin
// holds a peak — the same answer as a Binned.Bins map lookup.
func (q *Query) PeakInten(bin int32) (float64, bool) {
	if q.dense != nil {
		i := int(bin - q.denseLo)
		if i < 0 || i >= len(q.dense) {
			return 0, false
		}
		v := q.dense[i]
		if math.IsNaN(v) {
			return 0, false
		}
		return v, true
	}
	v, ok := q.Binned.Bins[bin]
	return v, ok
}

// PrepareQuery conditions and bins an experimental spectrum.
func PrepareQuery(raw *spectrum.Spectrum, cfg Config) *Query {
	pre := spectrum.Preprocess(raw, cfg.Preprocess)
	b := spectrum.Bin(pre, cfg.binWidth())
	b.Normalize()
	occ := b.Occupancy()
	if occ < 1e-4 {
		occ = 1e-4
	}
	if occ > 0.5 {
		occ = 0.5
	}
	q := &Query{
		ID:         raw.ID,
		ParentMass: raw.ParentMass(),
		Charge:     raw.Charge,
		Binned:     b,
		occupancy:  occ,
		numPeaks:   len(b.Bins),
	}
	if span := int64(b.MaxBin) - int64(b.MinBin) + 1; span > 0 && span <= denseSpanCap {
		q.denseLo = b.MinBin
		q.dense = make([]float64, span)
		for i := range q.dense {
			q.dense[i] = math.NaN()
		}
		//pepvet:allow determinism scatter into a dense array: each map key writes its own slot, so iteration order cannot escape
		for bin, v := range b.Bins {
			q.dense[bin-b.MinBin] = v
		}
	}
	return q
}

// Scorer scores candidate peptides against prepared queries.
//
// Scorers carry reusable per-instance scratch buffers so that a warmed
// Score call performs zero heap allocations per candidate. A Scorer is
// therefore NOT safe for concurrent use; every engine rank constructs its
// own instance (queries remain shareable).
type Scorer interface {
	// Name returns the model's registry name.
	Name() string
	// Score returns the model score for candidate pep (with optional
	// per-residue modification deltas) against q; larger is better.
	Score(q *Query, pep []byte, modDeltas []float64) float64
	// Prepare generates the candidate's model state for the given precursor
	// charge into prep (fragments, bins, null spectra, confidences) so that
	// many queries of that charge can be scored without regenerating it.
	Prepare(prep *CandidatePrep, pep []byte, modDeltas []float64, charge int)
	// ScorePrepared scores bq.Q against a prepared candidate. When bq.Q's
	// charge equals the prepared charge, the result is bit-identical to
	// Score(bq.Q, pep, modDeltas).
	ScorePrepared(bq *BatchQuery, prep *CandidatePrep) float64
	// Cost returns the relative per-candidate computational weight of the
	// model (the paper's ρ, normalized so Hyper ≈ 1). The virtual cluster
	// charges compute time proportional to it.
	Cost() float64
	// FragWalk reports which fragment-index walk (see fragbound.go) feeds
	// BoundFromAccum for this model.
	FragWalk() FragWalkKind
	// BoundFromAccum converts a fragment-index walk accumulator into either
	// the exact ScorePrepared value (exact=true, bit-identical) or a sound
	// upper bound on it (exact=false).
	BoundFromAccum(bq *BatchQuery, acc MatchAccum) (bound float64, exact bool)
}

// New constructs a scorer by registry name: "likelihood", "hyper", or
// "sharedpeaks".
func New(name string, cfg Config) (Scorer, error) {
	switch name {
	case "likelihood", "":
		return &Likelihood{cfg: cfg}, nil
	case "hyper":
		return &Hyper{cfg: cfg}, nil
	case "sharedpeaks":
		return &SharedPeaks{cfg: cfg}, nil
	case "xcorr":
		return &XCorr{cfg: cfg}, nil
	default:
		return nil, fmt.Errorf("score: unknown model %q (want likelihood, hyper, sharedpeaks, or xcorr)", name)
	}
}

// Names lists the registered scorer names.
func Names() []string { return []string{"likelihood", "hyper", "sharedpeaks", "xcorr"} }

// matchStats accumulates the per-candidate fragment matching shared by the
// models: for every theoretical fragment, whether its bin holds an observed
// peak and at what intensity.
type matchStats struct {
	dot       float64 // summed observed intensity over matched fragments
	bMatched  int
	yMatched  int
	nFrag     int
	distinct  int // distinct matched bins
	predicted int // distinct predicted bins
}

// binMarks is an epoch-stamped sparse membership table over fragment bins.
// It replaces the per-call map[int32]struct{} sets of the match kernel:
// resetting is O(1) (bump the epoch), membership is an array probe, and the
// backing array is reused across candidates, so a warmed table performs
// zero allocations. The table grows (amortized) to span the bin range it
// has ever seen — bounded by the digest mass window, a few thousand bins.
type binMarks struct {
	epoch uint64
	base  int32
	stamp []uint64
}

// binMarksAlign rounds bases down to coarse boundaries so small range
// extensions do not trigger repeated regrowth.
const binMarksAlign = 1024

// reset invalidates all marks in O(1).
func (m *binMarks) reset() { m.epoch++ }

// add marks bin and reports whether it was not yet marked this epoch.
func (m *binMarks) add(bin int32) bool {
	i := int(bin - m.base)
	if i < 0 || i >= len(m.stamp) {
		m.grow(bin)
		i = int(bin - m.base)
	}
	if m.stamp[i] == m.epoch {
		return false
	}
	m.stamp[i] = m.epoch
	return true
}

// grow re-bases the table to cover bin (plus alignment headroom),
// preserving current-epoch marks.
func (m *binMarks) grow(bin int32) {
	lo, hi := m.base, m.base+int32(len(m.stamp)) // current span [lo, hi)
	if len(m.stamp) == 0 {
		lo, hi = bin, bin
	}
	if bin < lo {
		lo = bin
	}
	if bin >= hi {
		hi = bin + 1
	}
	lo = (lo / binMarksAlign) * binMarksAlign
	if lo > bin { // negative bins round toward zero; step down once more
		lo -= binMarksAlign
	}
	n := int(hi-lo) + binMarksAlign
	stamp := make([]uint64, n)
	if len(m.stamp) > 0 {
		copy(stamp[int(m.base-lo):], m.stamp)
	}
	m.base, m.stamp = lo, stamp
}

// scratch carries the per-Scorer reusable buffers of the scoring kernel:
// the fragment buffer, the bin-mark tables of the match statistics, the
// null-model shuffle buffers, and the likelihood log-term cache. One
// instance lives inside each Scorer (ranks never share Scorers), making
// every warmed Score call allocation-free.
//
//pepvet:perrank
type scratch struct {
	frags   []spectrum.Fragment
	pred    binMarks
	matched binMarks
	nullPep []byte
	nullDel []float64
	// logR1/logR0 memoize the likelihood log-ratio terms per fragment slot
	// within one candidate (NaN = not yet computed); see Likelihood.Score.
	logR1 []float64
	logR0 []float64
}

// resetLogTerms sizes the log-term caches to n slots, all unset.
func (sc *scratch) resetLogTerms(n int) {
	if cap(sc.logR1) < n {
		sc.logR1 = make([]float64, n)
		sc.logR0 = make([]float64, n)
	}
	sc.logR1 = sc.logR1[:n]
	sc.logR0 = sc.logR0[:n]
	nan := math.NaN()
	for i := range sc.logR1 {
		sc.logR1[i] = nan
		sc.logR0[i] = nan
	}
}

// match accumulates the fragment-match statistics using the epoch-stamped
// tables; semantics are identical to the historical map-based version.
func (sc *scratch) match(q *Query, frags []spectrum.Fragment, width float64) matchStats {
	var st matchStats
	sc.pred.reset()
	sc.matched.reset()
	for _, f := range frags {
		bin := spectrum.BinIndex(f.MZ, width)
		if sc.pred.add(bin) {
			st.predicted++
		}
		st.nFrag++
		if inten, ok := q.PeakInten(bin); ok {
			st.dot += inten
			if f.Kind == spectrum.BIon {
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

// shuffled returns the salt-th deterministic null permutation of pep (and
// modDeltas, kept aligned) using the scratch buffers — same permutation as
// the allocating shuffle, without the copies.
func (sc *scratch) shuffled(pep []byte, modDeltas []float64, salt uint64) ([]byte, []float64) {
	sc.nullPep = append(sc.nullPep[:0], pep...)
	var deltas []float64
	if modDeltas != nil {
		sc.nullDel = append(sc.nullDel[:0], modDeltas...)
		deltas = sc.nullDel
	}
	shuffleInPlace(sc.nullPep, deltas, pep, salt)
	return sc.nullPep, deltas
}

// logFactTableSize bounds the memoized ln(n!) table (64 KiB). The
// hypergeometric scorer evaluates logChoose with population-sized
// arguments on every survival-sum term, so Lgamma dominated its profile;
// arguments beyond the table fall back to direct evaluation.
const logFactTableSize = 1 << 13

var (
	logFactOnce  sync.Once
	logFactTable []float64
)

func initLogFactTable() {
	t := make([]float64, logFactTableSize)
	for n := 2; n < logFactTableSize; n++ {
		lg, _ := math.Lgamma(float64(n) + 1)
		t[n] = lg
	}
	logFactTable = t
}

// logFactorial returns ln(n!) via the log-gamma function; small arguments
// come from the memoized table (each entry is the exact Lgamma value, so
// results are bit-identical to direct evaluation).
func logFactorial(n int) float64 {
	if n <= 1 {
		return 0
	}
	if n < logFactTableSize {
		logFactOnce.Do(initLogFactTable)
		return logFactTable[n]
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}

// shuffle performs a deterministic Fisher–Yates shuffle of a copy of pep
// (and modDeltas, kept aligned), seeded by the peptide content and a stream
// salt, so the "random peptide" null model is reproducible across ranks and
// runs. The hot path uses scratch.shuffled instead; this allocating form
// serves invariant tests (NullMass).
func shuffle(pep []byte, modDeltas []float64, salt uint64) ([]byte, []float64) {
	out := make([]byte, len(pep))
	copy(out, pep)
	var deltas []float64
	if modDeltas != nil {
		deltas = make([]float64, len(modDeltas))
		copy(deltas, modDeltas)
	}
	shuffleInPlace(out, deltas, pep, salt)
	return out, deltas
}

// shuffleInPlace applies the deterministic Fisher–Yates permutation to out
// (and deltas, when non-nil), seeded by the ORIGINAL peptide bytes seed and
// the stream salt. out must already hold a copy of the peptide.
func shuffleInPlace(out []byte, deltas []float64, seed []byte, salt uint64) {
	state := (xhash.Sum64(seed) ^ (salt * 0x9e3779b97f4a7c15)) | 1
	for i := len(out) - 1; i > 0; i-- {
		state = splitmix64(state)
		j := int(state % uint64(i+1))
		out[i], out[j] = out[j], out[i]
		if deltas != nil {
			deltas[i], deltas[j] = deltas[j], deltas[i]
		}
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// QuickMatchFraction is the cheap prefilter test used to emulate
// X!!Tandem-style aggressive prefiltering: the fraction of the candidate's
// singly-charged b/y fragment bins that hold an observed peak. It costs a
// small fraction of a full model evaluation.
func QuickMatchFraction(q *Query, pep []byte, modDeltas []float64, cfg Config) float64 {
	frac, _ := QuickMatchFractionBuf(q, pep, modDeltas, cfg, nil)
	return frac
}

// QuickMatchFractionBuf is QuickMatchFraction with a caller-owned fragment
// buffer: buf is truncated, filled, and returned so a scan loop can reuse
// it across candidates without per-candidate allocations.
func QuickMatchFractionBuf(q *Query, pep []byte, modDeltas []float64, cfg Config, buf []spectrum.Fragment) (float64, []spectrum.Fragment) {
	opt := cfg.Theoretical
	opt.MaxFragmentCharge = 1
	frags := spectrum.AppendFragments(buf[:0], pep, modDeltas, 1, opt)
	if len(frags) == 0 {
		return 0, frags
	}
	width := cfg.binWidth()
	matched := 0
	for _, f := range frags {
		if _, ok := q.PeakInten(spectrum.BinIndex(f.MZ, width)); ok {
			matched++
		}
	}
	return float64(matched) / float64(len(frags)), frags
}

// Likelihood is the MSPolygraph-style log-likelihood-ratio scorer.
type Likelihood struct {
	cfg Config
	scr scratch
}

// Name implements Scorer.
func (s *Likelihood) Name() string { return "likelihood" }

// nullShuffles is the number of random-peptide spectra averaged into the
// null model (more shuffles stabilize the likelihood ratio).
const nullShuffles = 3

// Cost implements Scorer. The likelihood model generates and evaluates a
// model spectrum for the candidate plus nullShuffles random-peptide
// spectra per candidate, a multiple of the simple models' work, plus the
// Poisson terms.
func (s *Likelihood) Cost() float64 { return 2.5 }

// Score implements Scorer. All fragment generation and null-model shuffling
// runs through the scratch buffers, so a warmed call allocates nothing.
//
// The null shuffles permute residues but keep the fragment (Kind, Index,
// Charge) structure — and therefore every log-ratio term — identical
// slot-for-slot with the model pass, so the math.Log results are memoized
// per slot across the four passes.
func (s *Likelihood) Score(q *Query, pep []byte, modDeltas []float64) float64 {
	s.scr.frags = spectrum.AppendFragments(s.scr.frags[:0], pep, modDeltas, q.Charge, s.cfg.Theoretical)
	s.scr.resetLogTerms(len(s.scr.frags))
	model := s.logLikelihood(q, s.scr.frags, len(pep))
	var null float64
	for k := uint64(0); k < nullShuffles; k++ {
		nullPep, nullDeltas := s.scr.shuffled(pep, modDeltas, k)
		s.scr.frags = spectrum.AppendFragments(s.scr.frags[:0], nullPep, nullDeltas, q.Charge, s.cfg.Theoretical)
		null += s.logLikelihood(q, s.scr.frags, len(nullPep))
	}
	return model - null/nullShuffles
}

// logLikelihood evaluates ln P(spectrum | peptide) under the Poisson peak
// model: each predicted fragment bin independently holds an observed peak
// with probability p1 (the model's confidence that the fragment appears;
// mid-sequence singly charged y-ions are most reliable), rewarded in
// proportion to the observed intensity, while background bins hold peaks
// with the spectrum's occupancy probability p0. The log-ratio terms are
// memoized in the scratch slot caches (primed by resetLogTerms): a term is
// computed on first use by any pass and reused by later passes; both p1
// ratios are strictly positive, so NaN is unreachable as a computed value
// and safely marks unset slots.
func (s *Likelihood) logLikelihood(q *Query, frags []spectrum.Fragment, pepLen int) float64 {
	width := s.cfg.binWidth()
	p0 := q.occupancy
	var ll float64
	for j, f := range frags {
		bin := spectrum.BinIndex(f.MZ, width)
		if inten, ok := q.PeakInten(bin); ok {
			r := s.scr.logR1[j]
			if math.IsNaN(r) {
				p1 := 0.30 + 0.55*fragConfidence(f, pepLen)
				r = math.Log(p1 / p0)
				s.scr.logR1[j] = r
			}
			ll += (0.5 + 0.5*inten) * r
		} else {
			r := s.scr.logR0[j]
			if math.IsNaN(r) {
				p1 := 0.30 + 0.55*fragConfidence(f, pepLen)
				r = math.Log((1 - p1) / (1 - p0))
				s.scr.logR0[j] = r
			}
			ll += r
		}
	}
	return ll
}

// fragConfidence mirrors the theoretical intensity model in [0,1].
func fragConfidence(f spectrum.Fragment, pepLen int) float64 {
	c := 0.6
	if f.Kind == spectrum.YIon {
		c = 1.0
	}
	pos := float64(f.Index) / float64(pepLen)
	c *= 1 - 0.8*math.Abs(pos-0.5)
	if f.Charge > 1 {
		c *= 0.4
	}
	return c
}

// Hyper is the X!Tandem-style hyperscore model.
type Hyper struct {
	cfg Config
	scr scratch
}

// Name implements Scorer.
func (s *Hyper) Name() string { return "hyper" }

// Cost implements Scorer.
func (s *Hyper) Cost() float64 { return 1.0 }

// Score implements Scorer: ln(dot · nB! · nY!) with the factorials capped
// (as in X!Tandem) to keep scores finite.
func (s *Hyper) Score(q *Query, pep []byte, modDeltas []float64) float64 {
	s.scr.frags = spectrum.AppendFragments(s.scr.frags[:0], pep, modDeltas, q.Charge, s.cfg.Theoretical)
	return hyperFromStats(s.scr.match(q, s.scr.frags, s.cfg.binWidth()))
}

// hyperFromStats maps match statistics to the hyperscore; shared by the
// query-major and prepared paths.
func hyperFromStats(st matchStats) float64 {
	if st.dot <= 0 {
		return 0
	}
	const factCap = 10
	nb, ny := st.bMatched, st.yMatched
	if nb > factCap {
		nb = factCap
	}
	if ny > factCap {
		ny = factCap
	}
	return math.Log(st.dot) + logFactorial(nb) + logFactorial(ny)
}

// SharedPeaks is the hypergeometric shared-peak-count model: the score is
// −log10 of the probability of matching at least the observed number of
// predicted fragment bins by chance.
type SharedPeaks struct {
	cfg Config
	scr scratch
}

// Name implements Scorer.
func (s *SharedPeaks) Name() string { return "sharedpeaks" }

// Cost implements Scorer.
func (s *SharedPeaks) Cost() float64 { return 1.2 }

// Score implements Scorer.
func (s *SharedPeaks) Score(q *Query, pep []byte, modDeltas []float64) float64 {
	s.scr.frags = spectrum.AppendFragments(s.scr.frags[:0], pep, modDeltas, q.Charge, s.cfg.Theoretical)
	return sharedPeaksFromStats(q, s.scr.match(q, s.scr.frags, s.cfg.binWidth()))
}

// sharedPeaksFromStats maps match statistics to the hypergeometric score;
// shared by the query-major and prepared paths.
func sharedPeaksFromStats(q *Query, st matchStats) float64 {
	if st.predicted == 0 {
		return 0
	}
	span := int(q.Binned.MaxBin-q.Binned.MinBin) + 1
	if span < st.predicted {
		span = st.predicted
	}
	if span < q.numPeaks {
		span = q.numPeaks
	}
	p := hypergeomSurvival(span, q.numPeaks, st.predicted, st.distinct)
	if p <= 0 {
		p = 1e-300
	}
	return -math.Log10(p)
}

// hypergeomSurvival returns P(X >= k) for X ~ Hypergeometric(M population,
// K successes, n draws), computed in log space.
func hypergeomSurvival(M, K, n, k int) float64 {
	if k <= 0 {
		return 1
	}
	max := n
	if K < max {
		max = K
	}
	if k > max {
		return 0
	}
	var sum float64
	for i := k; i <= max; i++ {
		if n-i > M-K {
			continue
		}
		lp := logChoose(K, i) + logChoose(M-K, n-i) - logChoose(M, n)
		sum += math.Exp(lp)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return logFactorial(n) - logFactorial(k) - logFactorial(n-k)
}

// NullMass returns the parent mass of the shuffled null peptide — equal to
// the candidate's by construction; exposed for invariant testing.
func NullMass(pep []byte, modDeltas []float64, t chem.MassType) float64 {
	null, deltas := shuffle(pep, modDeltas, 0)
	m, _ := chem.PeptideMass(null, t)
	for _, d := range deltas {
		m += d
	}
	return m
}
