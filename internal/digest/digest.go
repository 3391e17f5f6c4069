// Package digest generates candidate peptides from protein sequences using
// the empirical enzymatic-digestion rules of database searching: tryptic
// cleavage (after K/R, not before P) with missed cleavages, optional
// semi-tryptic prefix/suffix candidates (the paper's "a suffix or prefix of
// another (known) peptide sequence is said to be a candidate for q if the
// suffix's/prefix's m/z is m(q) ± δ"), and optional variable
// post-translational modifications.
//
// The package also provides the mass-sorted candidate index used by the
// search engines: per database block, peptides are indexed by neutral
// parent mass so candidates for a query window [m(q)−δ, m(q)+δ] are found
// with two binary searches.
package digest

import (
	"fmt"
	"math"
	"strings"

	"pepscale/internal/chem"
)

// Params configure candidate generation.
type Params struct {
	// MissedCleavages allows up to this many internal uncleaved K/R sites.
	MissedCleavages int
	// MinLength / MaxLength bound the peptide length in residues.
	MinLength, MaxLength int
	// MinMass / MaxMass bound the neutral peptide mass in daltons.
	MinMass, MaxMass float64
	// SemiTryptic additionally emits every sufficiently long proper prefix
	// and suffix of each fully tryptic peptide.
	SemiTryptic bool
	// Mods lists the variable modifications to consider.
	Mods []chem.Mod
	// MaxModsPerPeptide caps simultaneous modifications on one peptide.
	MaxModsPerPeptide int
	// MaxVariantsPerPeptide caps the combinatorial expansion per base
	// peptide (0 means the default of 64).
	MaxVariantsPerPeptide int
	// MassType selects the parent-mass scale.
	MassType chem.MassType
}

// DefaultParams returns the engine defaults: fully tryptic, up to 2 missed
// cleavages, length 6..50, mass 500..5000 Da, no modifications.
func DefaultParams() Params {
	return Params{
		MissedCleavages: 2,
		MinLength:       6,
		MaxLength:       50,
		MinMass:         500,
		MaxMass:         5000,
	}
}

func (p Params) maxVariants() int {
	if p.MaxVariantsPerPeptide <= 0 {
		return 64
	}
	return p.MaxVariantsPerPeptide
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.MissedCleavages < 0 {
		return fmt.Errorf("digest: negative missed cleavages %d", p.MissedCleavages)
	}
	if p.MinLength < 1 || p.MaxLength < p.MinLength {
		return fmt.Errorf("digest: invalid length bounds [%d,%d]", p.MinLength, p.MaxLength)
	}
	// ModSite.Pos and the index's length column are 16 bits wide.
	if p.MaxLength > math.MaxUint16 {
		return fmt.Errorf("digest: max length %d exceeds %d", p.MaxLength, math.MaxUint16)
	}
	if p.MinMass < 0 || p.MaxMass < p.MinMass {
		return fmt.Errorf("digest: invalid mass bounds [%g,%g]", p.MinMass, p.MaxMass)
	}
	if p.MaxModsPerPeptide < 0 {
		return fmt.Errorf("digest: negative mod cap %d", p.MaxModsPerPeptide)
	}
	return nil
}

// ModSite records one applied modification: Mods[Mod] applied at residue
// position Pos of the peptide.
type ModSite struct {
	Pos uint16
	Mod uint8
}

// Peptide is one candidate: a subsequence of a database protein plus any
// applied modifications. Seq aliases the protein's residue storage — no
// copies are made during digestion.
type Peptide struct {
	Seq     []byte
	Protein int32
	Mass    float64
	Sites   []ModSite // nil when unmodified
}

// Annotated renders the peptide with bracketed modification deltas, e.g.
// "AM[+15.99]K". mods must be the Params.Mods used during digestion.
func (p Peptide) Annotated(mods []chem.Mod) string {
	if len(p.Sites) == 0 {
		return string(p.Seq)
	}
	var sb strings.Builder
	site := 0
	for i, b := range p.Seq {
		sb.WriteByte(b)
		for site < len(p.Sites) && int(p.Sites[site].Pos) == i {
			//pepvet:allow allocflow annotation renders once per accepted hit, not per scored candidate; the per-candidate loop never reaches it
			fmt.Fprintf(&sb, "[%+.2f]", mods[p.Sites[site].Mod].Delta)
			site++
		}
	}
	return sb.String()
}

// ModDeltas expands Sites into a per-residue delta slice (nil when
// unmodified), the form consumed by theoretical spectrum generation.
func (p Peptide) ModDeltas(mods []chem.Mod) []float64 {
	return p.AppendModDeltas(nil, mods)
}

// AppendModDeltas is ModDeltas into a caller-owned buffer: dst is resized
// (reusing its capacity) to len(Seq), zeroed, and filled. It still returns
// nil for unmodified peptides — the "no deltas" signal scoring relies on —
// so callers keep the returned slice as the buffer for the next call only
// when it is non-nil. A warmed buffer makes the per-candidate pre-score
// path allocation-free.
func (p Peptide) AppendModDeltas(dst []float64, mods []chem.Mod) []float64 {
	if len(p.Sites) == 0 {
		return nil
	}
	n := len(p.Seq)
	if cap(dst) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
		for i := range dst {
			dst[i] = 0
		}
	}
	for _, s := range p.Sites {
		dst[s.Pos] += mods[s.Mod].Delta
	}
	return dst
}

// CleavageSites returns the tryptic cut positions of seq in ascending
// order, always including 0 and len(seq). A cut at position i means the
// bond between seq[i-1] and seq[i] is cleavable: after K or R, unless the
// next residue is P.
func CleavageSites(seq []byte) []int {
	if len(seq) == 0 {
		return nil
	}
	return appendCleavageSites(nil, seq)
}

// appendCleavageSites appends the cut positions of seq to dst: 0, the cuts
// inside seq, then len(seq) (so 0, 0 for an empty seq).
func appendCleavageSites(dst []int, seq []byte) []int {
	dst = append(dst, 0)
	for i := 1; i < len(seq); i++ {
		prev := seq[i-1]
		if (prev == 'K' || prev == 'R') && seq[i] != 'P' {
			dst = append(dst, i)
		}
	}
	return append(dst, len(seq))
}

// Digest enumerates the candidate peptides of one protein and passes each
// to emit. protein is the global index recorded on the peptides. Sequences
// containing non-standard residues (B, J, O, U, X, Z) have those segments
// skipped: a peptide is emitted only if every residue is standard.
func Digest(seq []byte, protein int32, p Params, emit func(Peptide)) {
	newDigester(p).run(seq, CleavageSites(seq), func(start, end int, mass float64, sites []ModSite) {
		pep := Peptide{Seq: seq[start:end], Protein: protein, Mass: mass}
		if len(sites) > 0 {
			pep.Sites = append([]ModSite(nil), sites...)
		}
		emit(pep)
	})
}

// emitFunc receives one candidate of the sequence being digested:
// seq[start:end] at the given mass. sites is the digester's scratch, valid
// only during the call (nil when unmodified).
type emitFunc func(start, end int, mass float64, sites []ModSite)

// digester enumerates candidates protein after protein, reusing its scratch:
// an index build digests every protein of its block once without allocating
// per protein or per peptide.
type digester struct {
	p     Params
	tab   *[256]float64
	water float64

	// The modification expansion in progress: the applicable sites of
	// seq[start:end], the ones applied so far and their mass.
	seq          []byte
	emit         emitFunc
	start, end   int
	cands, sites []ModSite
	base, mass   float64
	budget       int

	// siteCum is bound's running count of candidate sites.
	siteCum []int32
}

func newDigester(p Params) *digester {
	d := &digester{p: p, tab: chem.Table(p.MassType), water: chem.WaterMono}
	if p.MassType == chem.Average {
		d.water = chem.WaterAvg
	}
	return d
}

// run enumerates seq's candidates in a deterministic order, given its
// cleavage sites (appendCleavageSites). Every mass is
// the left-to-right residue sum plus water — chem.ResidueSum's exact
// operation order, since Hit.Mass is output: the spans sharing a start
// extend one running sum across missed cleavages, which adds the same terms
// in the same order (a difference of prefix sums would not).
func (d *digester) run(seq []byte, cuts []int, emit emitFunc) {
	if len(seq) == 0 {
		return
	}
	d.seq, d.emit = seq, emit
	p := &d.p
	for i := 0; i+1 < len(cuts); i++ {
		start, at := cuts[i], cuts[i]
		sum, standard := 0.0, true
		for mc := 0; mc <= p.MissedCleavages && i+1+mc < len(cuts); mc++ {
			end := cuts[i+1+mc]
			if end-start > p.MaxLength && !p.SemiTryptic {
				// Longer spans only grow; no further missed cleavages help.
				break
			}
			for _, b := range seq[at:end] {
				m := d.tab[b] // zero for a non-standard residue
				sum += m
				standard = standard && m != 0
			}
			at = end
			if n := end - start; standard && n >= p.MinLength && n <= p.MaxLength {
				d.expandMods(start, end, sum+d.water)
			}
			if p.SemiTryptic {
				// Proper prefixes and suffixes; the full peptide was emitted above.
				for l := p.MinLength; l < end-start; l++ {
					d.emitSub(start, start+l)
					d.emitSub(end-l, end)
				}
			}
		}
	}
}

// bound returns upper bounds on the entries, the modified entries among
// them and the modification sites run emits for seq, given its cleavage
// sites: run's spans and semi-tryptic forms within the length limits, each
// with its modification variants, counted from the modifiable residues it
// holds. It sums no mass, so it does not know which candidates the mass
// window or a non-standard residue drops.
func (d *digester) bound(seq []byte, cuts []int) (ents, modEnts, sites int) {
	p := &d.p
	mods := len(p.Mods) > 0 && p.MaxModsPerPeptide > 0
	if mods {
		// siteCum[i] counts the (position, modification) pairs expandMods
		// would consider in seq[:i].
		d.siteCum = append(d.siteCum[:0], 0)
		for _, b := range seq {
			n := d.siteCum[len(d.siteCum)-1]
			for _, m := range p.Mods {
				if m.AppliesTo(b) {
					n++
				}
			}
			d.siteCum = append(d.siteCum, n)
		}
	}
	add := func(start, end int) {
		ents++
		if mods {
			v, s := d.variants(int(d.siteCum[end] - d.siteCum[start]))
			ents, modEnts, sites = ents+v, modEnts+v, sites+s
		}
	}
	for i := 0; i+1 < len(cuts); i++ {
		start := cuts[i]
		for mc := 0; mc <= p.MissedCleavages && i+1+mc < len(cuts); mc++ {
			end := cuts[i+1+mc]
			n := end - start
			if n > p.MaxLength && !p.SemiTryptic {
				break
			}
			if n >= p.MinLength && n <= p.MaxLength {
				add(start, end)
			}
			if p.SemiTryptic {
				for l := p.MinLength; l < n && l <= p.MaxLength; l++ {
					add(start, start+l)
					add(end-l, end)
				}
			}
		}
	}
	return ents, modEnts, sites
}

// variants bounds the modified variants expandMods emits for a peptide with
// c candidate sites, and the sites they carry: the sets of at most
// MaxModsPerPeptide of them, capped at the variant limit.
func (d *digester) variants(c int) (v, sites int) {
	limit := d.p.maxVariants()
	term := 1
	for k := 1; k <= d.p.MaxModsPerPeptide && k <= c; k++ {
		if term > math.MaxInt/(c-k+1) {
			break
		}
		term = term * (c - k + 1) / k // C(c, k)
		v, sites = v+term, sites+k*term
		if v >= limit {
			break
		}
	}
	if v >= limit {
		return limit, limit * min(c, d.p.MaxModsPerPeptide)
	}
	return v, sites
}

// emitSub emits one semi-tryptic form and its modification variants.
func (d *digester) emitSub(start, end int) {
	sub := d.seq[start:end]
	if len(sub) > d.p.MaxLength || !allStandard(sub) {
		return
	}
	d.expandMods(start, end, chem.ResidueSum(sub, d.tab)+d.water)
}

func allStandard(seq []byte) bool {
	for _, b := range seq {
		if !chem.IsResidue(b) {
			return false
		}
	}
	return true
}

// expandMods emits the unmodified peptide plus modification variants, in a
// deterministic order, respecting the mass window and variant cap.
func (d *digester) expandMods(start, end int, baseMass float64) {
	p := &d.p
	if baseMass >= p.MinMass && baseMass <= p.MaxMass {
		d.emit(start, end, baseMass, nil)
	}
	if len(p.Mods) == 0 || p.MaxModsPerPeptide == 0 {
		return
	}
	// Collect applicable (position, mod) sites in deterministic order.
	d.cands = d.cands[:0]
	for i, b := range d.seq[start:end] {
		for mi, m := range p.Mods {
			if m.AppliesTo(b) {
				d.cands = append(d.cands, ModSite{Pos: uint16(i), Mod: uint8(mi)})
			}
		}
	}
	if len(d.cands) == 0 {
		return
	}
	d.start, d.end, d.base, d.mass = start, end, baseMass, 0
	d.budget = p.maxVariants()
	d.sites = d.sites[:0]
	d.expandFrom(0, 0)
}

// expandFrom extends the modification set in d.sites by each candidate at or
// after next, depth first.
func (d *digester) expandFrom(next, depth int) {
	p := &d.p
	for c := next; c < len(d.cands) && d.budget > 0; c++ {
		cand := d.cands[c]
		// At most one modification per residue position.
		if n := len(d.sites); n > 0 && d.sites[n-1].Pos == cand.Pos {
			continue
		}
		d.sites = append(d.sites, cand)
		d.mass += p.Mods[cand.Mod].Delta
		total := d.base + d.mass
		if total >= p.MinMass && total <= p.MaxMass {
			d.emit(d.start, d.end, total, d.sites)
			d.budget--
		}
		if depth+1 < p.MaxModsPerPeptide {
			d.expandFrom(c+1, depth+1)
		}
		d.mass -= p.Mods[cand.Mod].Delta
		d.sites = d.sites[:len(d.sites)-1]
	}
}
