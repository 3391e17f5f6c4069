package digest

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"

	"pepscale/internal/fasta"
)

// Index is a mass-sorted candidate store for one database block, laid out
// flat: one residue arena, one column of fixed-size entries pointing into
// it, and one column of modification sites. At builds the Peptide view of an
// entry on the fly.
type Index struct {
	ents  []entry
	arena []byte
	sites []ModSite
}

// entry is one candidate: arena[off:off+n] at mass, with sites
// [siteOff, siteOff+nSites) applied.
type entry struct {
	mass    float64
	off     uint32
	protein int32
	siteOff uint32
	n       uint16
	nSites  uint16
}

// TooLargeError reports a block that does not fit the index's 32-bit residue
// and site offsets, or a peptide that does not fit its 16-bit lengths.
type TooLargeError struct {
	What   string // "block residues", "block mod sites", "peptide length" or "peptide mod sites"
	N, Max int64
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("digest: %s %d exceed the index limit %d", e.What, e.N, e.Max)
}

func checkFits(what string, n, max int64) error {
	if n > max {
		return &TooLargeError{What: what, N: n, Max: max}
	}
	return nil
}

// NewIndex digests every record and builds the mass-sorted index.
// baseProtein is added to each record's position to form its global protein
// index (blocks of a distributed database carry their global offsets).
func NewIndex(recs []fasta.Record, baseProtein int32, p Params) (*Index, error) {
	gids := make([]int32, len(recs))
	for i := range gids {
		gids[i] = baseProtein + int32(i)
	}
	return NewIndexIDs(recs, gids, p)
}

// NewIndexIDs is NewIndex with an explicit global protein index per record,
// as needed after the m/z redistribution of Algorithm B scrambles block
// membership. The block is digested twice — a counting pass, then a filling
// pass — so every column is allocated once at its final size.
func NewIndexIDs(recs []fasta.Record, gids []int32, p Params) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(gids) != len(recs) {
		return nil, fmt.Errorf("digest: %d records but %d protein ids", len(recs), len(gids))
	}
	var residues int64
	for _, rec := range recs {
		residues += int64(len(rec.Seq))
	}
	if err := checkFits("block residues", residues, math.MaxUint32); err != nil {
		return nil, err
	}
	d := newDigester(p)
	var n, nSites int
	count := func(_, _ int, _ float64, sites []ModSite) {
		n++
		nSites += len(sites)
	}
	for _, rec := range recs {
		d.run(rec.Seq, count)
	}
	ix, err := newIndex(n, int(residues), nSites)
	if err != nil {
		return nil, err
	}
	var base int
	var gid int32
	fill := func(start, end int, mass float64, sites []ModSite) {
		ix.add(base+start, end-start, gid, mass, sites)
	}
	for i, rec := range recs {
		base, gid = len(ix.arena), gids[i]
		ix.arena = append(ix.arena, rec.Seq...)
		d.run(rec.Seq, fill)
	}
	ix.sort()
	return ix, nil
}

// IndexFromPeptides builds an index directly from pre-generated peptides —
// the path used where candidates arrive already digested. The peptides are
// copied into the index's own storage in the canonical mass order.
func IndexFromPeptides(peps []Peptide, p Params) (*Index, error) {
	return IndexFromFunc(len(peps), func(i int) Peptide { return peps[i] }, p)
}

// IndexFromFunc is IndexFromPeptides over the n peptides at(0..n-1), for a
// caller whose candidates are not held as a []Peptide (the candidate-
// transport engine's wire entries). at is called twice per peptide.
func IndexFromFunc(n int, at func(i int) Peptide, p Params) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var residues, nSites int64
	for i := 0; i < n; i++ {
		pep := at(i)
		if err := checkFits("peptide length", int64(len(pep.Seq)), math.MaxUint16); err != nil {
			return nil, err
		}
		if err := checkFits("peptide mod sites", int64(len(pep.Sites)), math.MaxUint16); err != nil {
			return nil, err
		}
		residues += int64(len(pep.Seq))
		nSites += int64(len(pep.Sites))
	}
	if err := checkFits("block residues", residues, math.MaxUint32); err != nil {
		return nil, err
	}
	ix, err := newIndex(n, int(residues), int(nSites))
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		pep := at(i)
		off := len(ix.arena)
		ix.arena = append(ix.arena, pep.Seq...)
		ix.add(off, len(pep.Seq), pep.Protein, pep.Mass, pep.Sites)
	}
	ix.sort()
	return ix, nil
}

// newIndex allocates the three columns at their final sizes.
func newIndex(n, residues, nSites int) (*Index, error) {
	if err := checkFits("block mod sites", int64(nSites), math.MaxUint32); err != nil {
		return nil, err
	}
	ix := &Index{ents: make([]entry, 0, n), arena: make([]byte, 0, residues)}
	if nSites > 0 {
		ix.sites = make([]ModSite, 0, nSites)
	}
	return ix, nil
}

// add appends the candidate arena[off:off+n]; every column has room (see
// newIndex), so nothing grows.
func (ix *Index) add(off, n int, protein int32, mass float64, sites []ModSite) {
	ix.ents = append(ix.ents, entry{
		mass: mass, off: uint32(off), protein: protein,
		siteOff: uint32(len(ix.sites)), n: uint16(n), nSites: uint16(len(sites)),
	})
	ix.sites = append(ix.sites, sites...)
}

// radixMinLen is the entry count from which sort uses the radix passes.
// Below it the comparison sort wins and allocates nothing, which keeps a
// build's fixed cost proportional to its block: a p=1024 run builds a
// thousand indexes of a few hundred entries each.
const radixMinLen = 4096

// massKey maps a mass to a uint64 whose unsigned order is the float order.
func massKey(m float64) uint64 {
	b := math.Float64bits(m)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sort orders entries by mass with a deterministic tie-break (residues, then
// protein, then site count), so that identical databases produce identical
// indexes regardless of block boundaries. Entries equal under all four may
// take either order: they render to the same hit. Large blocks take a stable
// LSD radix sort on the bytes of the mass key, skipping the bytes every
// entry shares, and then order each run of equal mass by the tie-break.
func (ix *Index) sort() {
	n := len(ix.ents)
	if n < radixMinLen {
		slices.SortFunc(ix.ents, func(a, b entry) int {
			if c := cmp.Compare(a.mass, b.mass); c != 0 {
				return c
			}
			return ix.compareTie(a, b)
		})
		return
	}
	var count [8][256]int
	for i := range ix.ents {
		k := massKey(ix.ents[i].mass)
		for d := range count {
			count[d][byte(k>>(8*d))]++
		}
	}
	k0 := massKey(ix.ents[0].mass)
	src, dst := ix.ents, make([]entry, n)
	for d := range count {
		c, shift := &count[d], 8*d
		if c[byte(k0>>shift)] == n {
			continue
		}
		at := 0
		for i, m := range c {
			c[i] = at
			at += m
		}
		for i := range src {
			slot := &c[byte(massKey(src[i].mass)>>shift)]
			dst[*slot] = src[i]
			*slot++
		}
		src, dst = dst, src
	}
	ix.ents = src
	for i := 0; i < n; {
		j := i + 1
		for j < n && src[j].mass == src[i].mass {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(src[i:j], ix.compareTie)
		}
		i = j
	}
}

// compareTie orders two entries of equal mass.
func (ix *Index) compareTie(a, b entry) int {
	return cmp.Or(bytes.Compare(ix.seq(&a), ix.seq(&b)), cmp.Compare(a.protein, b.protein), cmp.Compare(a.nSites, b.nSites))
}

func (ix *Index) seq(e *entry) []byte {
	end := e.off + uint32(e.n)
	return ix.arena[e.off:end:end]
}

// Len returns the number of indexed candidate peptides.
func (ix *Index) Len() int { return len(ix.ents) }

// At returns the i-th peptide in mass order. Seq and Sites alias the
// index's storage and must not be modified.
func (ix *Index) At(i int) Peptide {
	e := &ix.ents[i]
	pep := Peptide{Seq: ix.seq(e), Protein: e.protein, Mass: e.mass}
	if e.nSites > 0 {
		end := e.siteOff + uint32(e.nSites)
		pep.Sites = ix.sites[e.siteOff:end:end]
	}
	return pep
}

// SeqLen returns len(At(i).Seq) without building the view.
func (ix *Index) SeqLen(i int) int { return int(ix.ents[i].n) }

// Window returns the index range [start, end) of peptides with mass in
// [lo, hi].
func (ix *Index) Window(lo, hi float64) (start, end int) {
	return ix.WindowFrom(0, 0, lo, hi)
}

// WindowFrom is Window for an ascending-mass sweep: hintStart/hintEnd are
// the bounds of the previously computed window, and both lo and hi must be
// no smaller than that window's (true for Da and ppm tolerances alike, as
// both widen monotonically with the reference mass). The bounds gallop
// forward from the hints, so computing all windows of a mass-sorted query
// batch costs near-linear time instead of a binary search per query. The
// result is exactly Window(lo, hi).
func (ix *Index) WindowFrom(hintStart, hintEnd int, lo, hi float64) (start, end int) {
	// mass > hi exactly when mass >= the next float above hi.
	return ix.gallopMassGE(hintStart, lo), ix.gallopMassGE(hintEnd, math.Nextafter(hi, math.Inf(1)))
}

// gallopMassGE returns the first index >= from whose mass is >= m, under
// the precondition that every index below from has mass < m.
func (ix *Index) gallopMassGE(from int, m float64) int {
	n := len(ix.ents)
	from = max(from, 0)
	// Exponential gallop to a bracket [lo, hi) that holds the answer
	// (everything below lo is < m), then binary search inside it.
	lo, hi := from, from
	for step := 1; hi < n && ix.ents[hi].mass < m; step *= 2 {
		lo, hi = hi+1, from+step
	}
	hi = min(hi, n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.ents[mid].mass < m {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// CountInWindow returns the number of candidates with mass in [lo, hi].
func (ix *Index) CountInWindow(lo, hi float64) int {
	s, e := ix.Window(lo, hi)
	return e - s
}

// MinMass and MaxMass return the smallest and largest indexed masses (0 for
// an empty index).
func (ix *Index) MinMass() float64 {
	if len(ix.ents) == 0 {
		return 0
	}
	return ix.ents[0].mass
}

func (ix *Index) MaxMass() float64 {
	if len(ix.ents) == 0 {
		return 0
	}
	return ix.ents[len(ix.ents)-1].mass
}
