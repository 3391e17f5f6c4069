package digest

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"pepscale/internal/fasta"
)

// Index is a mass-sorted candidate store for one database block, laid out
// flat: one residue arena, one column of 16-byte entries pointing into it,
// the runs of the arena that belong to one protein, and, for the modified
// entries, a column of (arena offset, site offset) pairs into one column of
// modification sites. At builds the Peptide view of an entry on the fly. A
// large block is sorted one mass bucket at a time (see sort and At).
type Index struct {
	ents  []entry
	arena []byte
	runs  []run
	mods  []modRef
	sites []ModSite
	lazy  *buckets // nil when the build sorted every entry
}

// entry is one candidate of n residues at mass. An unmodified entry's
// residues are arena[ref:ref+n]; a modified one's ref indexes mods, which
// holds its arena offset and where its nSites sites start.
type entry struct {
	mass   float64
	ref    uint32
	n      uint16
	nSites uint16
}

type modRef struct{ off, siteOff uint32 }

// run is the stretch of the arena from start to the next run's start,
// whose candidates are all of protein gid. A candidate's protein is the
// last run starting at or before its arena offset: an earlier run of the
// same start is empty.
type run struct {
	start uint32
	gid   int32
}

// TooLargeError reports a block that does not fit the index's 32-bit residue
// and site offsets, or a peptide that does not fit its 16-bit lengths. Every
// modified entry carries a site, so a block whose sites fit also fits the
// 32-bit references to its modified entries.
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
// membership. The block is digested once, into columns sized by the
// digester's bound on what it emits, and the entries are then sorted (or
// partitioned, see sort) in place.
func NewIndexIDs(recs []fasta.Record, gids []int32, p Params) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(gids) != len(recs) {
		return nil, fmt.Errorf("digest: %d records but %d protein ids", len(recs), len(gids))
	}
	residues := fasta.TotalResidues(recs)
	if err := checkFits("block residues", int64(residues), math.MaxUint32); err != nil {
		return nil, err
	}
	d := newDigester(p)
	// One record's cleavage sites, on the stack unless the record has more
	// than 64.
	var buf [64]int
	cuts := buf[:0]
	ents, modEnts, sites := 0, 0, 0
	for _, rec := range recs {
		cuts = appendCleavageSites(cuts[:0], rec.Seq)
		e, m, s := d.bound(rec.Seq, cuts)
		ents, modEnts, sites = ents+e, modEnts+m, sites+s
	}
	if err := checkFits("block mod sites", int64(sites), math.MaxUint32); err != nil {
		return nil, err
	}
	ix := newColumns(ents, residues, len(recs), modEnts, sites)
	var base int
	fill := func(start, end int, mass float64, sites []ModSite) {
		ix.add(base+start, end-start, mass, sites)
	}
	for i, rec := range recs {
		base = len(ix.arena)
		ix.addRun(base, gids[i])
		ix.arena = append(ix.arena, rec.Seq...)
		cuts = appendCleavageSites(cuts[:0], rec.Seq)
		d.run(rec.Seq, cuts, fill)
	}
	ix.sort()
	return ix, nil
}

// IndexFromFunc builds an index directly from the n pre-generated peptides
// at(0..n-1) — the path used where candidates arrive already digested (the
// candidate-transport engine's wire entries). The peptides are copied into
// the index's own storage in the index order, each run of equal proteins
// one run of the arena. at is called twice per peptide: once to size the
// columns, once to fill them.
func IndexFromFunc(n int, at func(i int) Peptide, p Params) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var residues, runs, modEnts, sites int64
	var prev int32
	for i := 0; i < n; i++ {
		pep := at(i)
		if err := checkFits("peptide length", int64(len(pep.Seq)), math.MaxUint16); err != nil {
			return nil, err
		}
		if err := checkFits("peptide mod sites", int64(len(pep.Sites)), math.MaxUint16); err != nil {
			return nil, err
		}
		// An empty peptide holds one unused byte of the arena, so the run
		// it may start does not share its start with the next.
		residues += int64(max(len(pep.Seq), 1))
		if i == 0 || pep.Protein != prev {
			runs++
		}
		prev = pep.Protein
		if len(pep.Sites) > 0 {
			modEnts++
		}
		sites += int64(len(pep.Sites))
	}
	if err := checkFits("block residues", residues, math.MaxUint32); err != nil {
		return nil, err
	}
	if err := checkFits("block mod sites", sites, math.MaxUint32); err != nil {
		return nil, err
	}
	ix := newColumns(n, int(residues), int(runs), int(modEnts), int(sites))
	for i := 0; i < n; i++ {
		pep := at(i)
		ix.addRun(len(ix.arena), pep.Protein)
		ix.add(len(ix.arena), len(pep.Seq), pep.Mass, pep.Sites)
		ix.arena = append(ix.arena, pep.Seq...)
		if len(pep.Seq) == 0 {
			ix.arena = append(ix.arena, 0)
		}
	}
	ix.sort()
	return ix, nil
}

// newColumns allocates an empty index whose columns hold the given counts;
// an unmodified build allocates no modification columns.
func newColumns(ents, residues, runs, modEnts, sites int) *Index {
	ix := &Index{ents: make([]entry, 0, ents), arena: make([]byte, 0, residues), runs: make([]run, 0, runs)}
	if modEnts > 0 {
		ix.mods = make([]modRef, 0, modEnts)
		ix.sites = make([]ModSite, 0, sites)
	}
	return ix
}

// addRun records that the arena from start on holds protein gid's
// candidates; a run of the same protein goes on.
func (ix *Index) addRun(start int, gid int32) {
	if n := len(ix.runs); n == 0 || ix.runs[n-1].gid != gid {
		ix.runs = append(ix.runs, run{start: uint32(start), gid: gid})
	}
}

// add appends the candidate arena[off:off+n] with its sites.
func (ix *Index) add(off, n int, mass float64, sites []ModSite) {
	ref := uint32(off)
	if len(sites) > 0 {
		ref = uint32(len(ix.mods))
		ix.mods = append(ix.mods, modRef{off: uint32(off), siteOff: uint32(len(ix.sites))})
		ix.sites = append(ix.sites, sites...)
	}
	ix.ents = append(ix.ents, entry{mass: mass, ref: ref, n: uint16(n), nSites: uint16(len(sites))})
}

// massKey maps a mass to a uint64 whose unsigned order is the float order.
func massKey(m float64) uint64 {
	b := math.Float64bits(m)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sort puts ix.ents in the index order: by mass key, then residues,
// protein, site count and the sites themselves by (Pos, Mod). The order is
// total over an entry's content, so an index does not depend on how the
// database was split into blocks or in which order peptides arrived (only
// entries identical in content can trade places, and nothing can tell them
// apart).
//
// A block of wholeSortMax entries or more is only partitioned into the
// top-level buckets of sortRange, each sorted when a window first reaches
// it (see buckets). Below that the bucket table would cost more than the
// sorting it saves, and the block is sorted whole.
func (ix *Index) sort() {
	if len(ix.ents) < wholeSortMax {
		ix.sortRange(ix.ents)
		return
	}
	z := new(buckets)
	var nb int
	if z.least, z.shift, nb = partition(ix.ents, (*[256]uint32)(z.bounds[1:])); nb == 0 {
		ix.sortRun(ix.ents)
		return
	}
	z.last, ix.lazy = nb-1, z
}

// wholeSortMax is the entry count from which a build defers its bucket
// sorts: at 1,024 entries the 1 KiB bucket table is 4 % of the entries.
const wholeSortMax = 1024

// sortRange sorts ents in place, most significant digit first: partition
// them into buckets, then sort each bucket the same way while it holds more
// than 32 entries of unequal keys, and by sortRun below that.
func (ix *Index) sortRange(ents []entry) {
	var ends [256]uint32
	_, _, nb := partition(ents, &ends)
	if nb == 0 {
		ix.sortRun(ents)
		return
	}
	start := uint32(0)
	for _, e := range ends[:nb] {
		if e-start > 1 {
			ix.sortRange(ents[start:e])
		}
		start = e
	}
}

// partition buckets ents in place by the leading bits of their key's
// offset from the least key: up to 256 buckets, about two entries per
// bucket below 512 entries. Each round visits the unfilled slots of every
// bucket and swaps the entry in each to the next free slot of its own
// bucket, which places it; rounds repeat until every bucket is full. The
// visits of a round do not wait on each other's loads, and with at most 256
// buckets the slots being filled stay in cache. It returns the least key,
// the shift that maps a key's offset to its bucket, and the bucket count nb
// with bucket b's end in ends[b]; nb is 0, and ents untouched, when there
// are at most 32 entries or one key.
func partition(ents []entry, ends *[256]uint32) (least uint64, shift uint, nb int) {
	n := len(ents)
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i := range ents {
		k := massKey(ents[i].mass)
		lo, hi = min(lo, k), max(hi, k)
	}
	if n <= 32 || lo == hi {
		return lo, 0, 0
	}
	shift = uint(max(bits.Len64(hi-lo)-min(bits.Len(uint(n/2)), 8), 0))
	bucket := func(e *entry) uint8 { return uint8((massKey(e.mass) - lo) >> shift) }
	// Bucket b's slots are [head[b], end[b]) once the counts are summed;
	// head[b] then advances past each entry placed in b. A bucket number
	// indexes the arrays themselves, which needs no bounds check.
	var heads [256]uint32
	nb = int((hi-lo)>>shift) + 1
	head, end := heads[:nb], ends[:nb]
	for i := range ents {
		ends[bucket(&ents[i])]++
	}
	sum := uint32(0)
	for b, c := range end {
		head[b] = sum
		sum += c
		end[b] = sum
	}
	for full := false; !full; {
		full = true
		for b := range end {
			for i := head[b]; i < end[b]; i++ {
				t := bucket(&ents[i])
				j := heads[t]
				ents[i], ents[j] = ents[j], ents[i]
				heads[t] = j + 1
			}
			full = full && head[b] == end[b]
		}
	}
	return lo, shift, nb
}

// buckets is the top-level partition of a block that sort left unsorted
// inside its buckets; bucket b is ents[bounds[b]:bounds[b+1]]. A bucket is
// sorted, with sortRange, once: by the first Window/WindowFrom that reaches
// it, or by SortAll. Every rank that scans the block shares the index, so
// the sort is single-flight under mu, and the bucket's bit in done is
// stored after it: a reader that loads the bit set is ordered after the
// sort's writes, and one that loads it clear takes mu and looks again.
type buckets struct {
	least  uint64
	shift  uint
	last   int // the last bucket
	bounds [257]uint32
	mu     sync.Mutex
	done   [4]atomic.Uint64
}

// of returns the bucket that holds the entries of mass m, clamped to the
// first and last bucket (m must not be NaN).
func (z *buckets) of(m float64) int {
	k := massKey(m)
	if m == 0 {
		k = massKey(math.Copysign(0, -1)) // -0 == +0: start at the lesser key
	}
	if k <= z.least {
		return 0
	}
	return int(min((k-z.least)>>z.shift, uint64(z.last)))
}

// sorted reports whether buckets b0..b1 are all sorted.
func (z *buckets) sorted(b0, b1 int) bool {
	for b := b0; b <= b1; b++ {
		if z.done[b>>6].Load()&(1<<(b&63)) == 0 {
			return false
		}
	}
	return true
}

// sortBuckets sorts those of buckets b0..b1 that are not sorted yet.
func (ix *Index) sortBuckets(b0, b1 int) {
	z := ix.lazy
	z.mu.Lock()
	defer z.mu.Unlock()
	for b := b0; b <= b1; b++ {
		w := &z.done[b>>6]
		if w.Load()&(1<<(b&63)) != 0 {
			continue
		}
		if s, e := z.bounds[b], z.bounds[b+1]; e-s > 1 {
			ix.sortRange(ix.ents[s:e])
		}
		w.Store(w.Load() | 1<<(b&63))
	}
}

// SortAll sorts every bucket no window has reached, after which At and
// SeqLen are valid at every position. A caller that reads the whole index
// in order calls it first.
func (ix *Index) SortAll() {
	if ix.lazy != nil {
		ix.sortBuckets(0, ix.lazy.last)
	}
}

// sortRun sorts one bucket: by insertion up to 32 entries, else by
// slices.SortFunc.
func (ix *Index) sortRun(run []entry) {
	if len(run) > 32 {
		slices.SortFunc(run, func(a, b entry) int { return ix.compare(&a, &b) })
		return
	}
	for i := 1; i < len(run); i++ {
		e := run[i]
		k := massKey(e.mass)
		j := i
		for ; j > 0; j-- {
			if pk := massKey(run[j-1].mass); pk < k || pk == k && ix.compare(&run[j-1], &e) <= 0 {
				break
			}
			run[j] = run[j-1]
		}
		run[j] = e
	}
}

// compare is the index order.
func (ix *Index) compare(a, b *entry) int {
	if c := cmp.Compare(massKey(a.mass), massKey(b.mass)); c != 0 {
		return c
	}
	va, vb := ix.view(*a), ix.view(*b)
	if c := bytes.Compare(va.Seq, vb.Seq); c != 0 {
		return c
	}
	return cmp.Or(cmp.Compare(ix.protein(a), ix.protein(b)), cmp.Compare(a.nSites, b.nSites),
		slices.CompareFunc(va.Sites, vb.Sites, func(x, y ModSite) int {
			return cmp.Or(cmp.Compare(x.Pos, y.Pos), cmp.Compare(x.Mod, y.Mod))
		}))
}

// protein finds the run of e's residues by binary search.
func (ix *Index) protein(e *entry) int32 {
	off := e.ref
	if e.nSites != 0 {
		off = ix.mods[e.ref].off
	}
	lo, hi := 0, len(ix.runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.runs[mid].start <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ix.runs[lo-1].gid
}

// Len returns the number of indexed candidate peptides.
func (ix *Index) Len() int { return len(ix.ents) }

// At returns the i-th peptide in mass order. Seq and Sites alias the
// index's storage and must not be modified. i must lie in a window this
// index returned, or the index must have been through SortAll.
func (ix *Index) At(i int) Peptide {
	pep := ix.Candidate(i)
	pep.Protein = ix.Protein(i)
	return pep
}

// Candidate is At without the protein, whose lookup is a binary search
// over the block's runs: its Protein is -1, and Protein(i) resolves it.
// The sweep reads every candidate's residues, mass and sites, and the
// protein of a hit only.
func (ix *Index) Candidate(i int) Peptide { return ix.view(ix.ents[i]) }

// view is e's Peptide without its protein.
func (ix *Index) view(e entry) Peptide {
	off, pep := e.ref, Peptide{Protein: -1, Mass: e.mass}
	if e.nSites != 0 {
		m := ix.mods[e.ref]
		end := m.siteOff + uint32(e.nSites)
		off, pep.Sites = m.off, ix.sites[m.siteOff:end:end]
	}
	end := off + uint32(e.n)
	pep.Seq = ix.arena[off:end:end]
	return pep
}

// Protein returns At(i).Protein, under At's condition on i.
func (ix *Index) Protein(i int) int32 { return ix.protein(&ix.ents[i]) }

// SeqLen returns len(At(i).Seq) without building the view, under At's
// condition on i.
func (ix *Index) SeqLen(i int) int { return int(ix.ents[i].n) }

// Window returns the index range [start, end) of peptides with mass in
// [lo, hi]; neither bound may be NaN, nor any mass in the index.
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
//
// It sorts every bucket from lo's to hi's (or hi's to lo's). Lesser buckets
// hold only lesser keys, so each bound gallops inside its own bucket.
func (ix *Index) WindowFrom(hintStart, hintEnd int, lo, hi float64) (start, end int) {
	// mass > hi exactly when mass >= the next float above hi. No float is
	// above +Inf: a window to +Inf ends where the index (its last bucket)
	// does, which an end hint past it says.
	above := math.Nextafter(hi, math.Inf(1))
	if math.IsInf(hi, 1) {
		hintEnd = math.MaxInt
	}
	z := ix.lazy
	if z == nil {
		n := len(ix.ents)
		return ix.gallopMassGE(hintStart, n, lo), ix.gallopMassGE(hintEnd, n, above)
	}
	b0, b1 := z.of(lo), z.of(above)
	if first, last := min(b0, b1), max(b0, b1); !z.sorted(first, last) {
		//pepvet:allow allocflow first touch: a bucket is sorted once per index, and a window whose buckets are all sorted, as every warm one is, skips this call
		ix.sortBuckets(first, last)
	}
	return ix.gallopMassGE(max(hintStart, int(z.bounds[b0])), int(z.bounds[b0+1]), lo),
		ix.gallopMassGE(max(hintEnd, int(z.bounds[b1])), int(z.bounds[b1+1]), above)
}

// gallopMassGE returns the first index in [from, n) whose mass is >= m, or
// n, under the precondition that every index below from has mass < m; a
// from past n returns n.
func (ix *Index) gallopMassGE(from, n int, m float64) int {
	from = min(max(from, 0), n)
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
