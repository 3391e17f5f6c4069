// Package fragidx implements the inverted fragment-m/z index of the
// fragment-index scan path (the MSFragger/Sage-style "fragment-index
// search"): a once-per-block mapping from fragment m/z bin to the postings
// of every candidate fragment falling in that bin.
//
// The index is built from a digest.Index in mass order, so candidate
// ordinals coincide with the digest's peptide positions and any precursor
// window [start, end) computed by the existing gallop bounds slices every
// bin row with one binary search — postings within a row are sorted by
// ordinal by construction (candidates are appended in ordinal order and a
// counting sort into row segments is stable).
//
// Posting layout is chosen per tier kind for minimum scan traffic. Match
// tiers are struct-of-arrays: an ordinal stream (ords) the row walks
// compare against window bounds, plus a packed payload (metas) loaded only
// inside the window. Passes tiers — the likelihood walk's, and by far the
// largest (four scoring passes) — pack each posting into a single uint32
// key `ord<<11 | null<<10 | slot`: the walk's window comparisons operate
// directly on the key (the ordinal occupies the top bits), so one
// four-byte stream carries both the cursor advance and the payload,
// halving the per-scan posting traffic of the dominant tier.
//
// A scan then inverts the per-candidate fragment generation: instead of
// deriving ~2·(L−1)·maxZ theoretical fragments per (query, candidate) pair,
// each query walks its occupied peak bins once, touching exactly the
// postings of fragments that actually match a peak, and accumulates per
// candidate the match statistics (or, for the likelihood model, the matched
// log-ratio terms of all four scoring passes) in a window-zeroed scratch
// accumulator. score.Scorer.BoundFromAccum turns the accumulator into an
// exact score or a sound upper bound, so full Prepare/ScorePrepared work is
// spent only on candidates that can still be accepted.
//
// Everything here is deterministic: tiers are pure functions of the block's
// peptides and the scoring configuration, so an index rebuilt after a fault
// recovery is bit-identical to the original.
//
// Ownership: an Index belongs to its block, not to a rank. Every rank that
// scans the block reads the same Index concurrently; each (maxZ, kind) tier
// is built exactly once, by whichever rank demands it first, and is
// immutable from then on. What stays per rank is the walk state (Scratch).
package fragidx

import (
	"sync"
	"sync/atomic"

	"pepscale/internal/chem"
	"pepscale/internal/digest"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
)

// Meta packs one theoretical fragment occurrence's payload into a uint32
// (its candidate ordinal lives in the tier's parallel ords array):
//
//	bits 31..30  scoring pass (0 = model peptide, 1..3 = null shuffles)
//	bit  29      ion series (0 = b, 1 = y)
//	bits 28..26  fragment charge (1..7)
//	bits 25..16  fragment slot within the pass's emission order
//	bits 15..0   1-based cleavage index
//
// The pass occupies the top bits so the walks derive the model/null
// accumulator selector branch-free from the two pass bits alone.
type Meta uint32

const (
	metaPassShift   = 30
	metaPassMask    = 0x3
	metaSeriesBit   = 1 << 29
	metaChargeShift = 26
	metaChargeMask  = 0x7
	metaSlotShift   = 16
	metaSlotMask    = 0x3ff
	metaIndexMask   = 0xffff

	// maxSlot and maxPassCharge bound the packable slot index and fragment
	// charge. A block beyond maxSlot cannot carry pass postings, though
	// plain match tiers remain available since their walks read only the
	// ordinal and series bits; no tier exists beyond maxPassCharge (see
	// Index.Tier).
	maxSlot       = metaSlotMask
	maxPassCharge = MaxFragmentCharge

	// MaxFragmentCharge is the largest fragment charge a Meta can carry. A
	// larger one would spill into the series bit, which every walk reads, so
	// core.Options.Validate refuses the fragment-index scan above it.
	MaxFragmentCharge = metaChargeMask
)

// Passes-tier postings pack ordinal, pass, and slot into one uint32 key:
//
//	bits 31..11  candidate ordinal
//	bit  10      pass selector (0 = model peptide, 1 = any null shuffle)
//	bits  9..0   fragment slot within the pass's emission order
//
// The ordinal in the top bits makes keys order-compatible with ordinals:
// key < ord<<keyOrdShift ⇔ posting ordinal < ord, so window bounds compare
// against shifted ordinals with no unpacking.
const (
	keyOrdShift  = 11
	keyNullShift = 10
	keySlotMask  = 0x3ff

	// maxPackOrd bounds the packable ordinal; a block with more candidates
	// cannot carry pass postings (Index.Tier returns nil and the scan falls
	// back to full scoring). Engine blocks are far smaller in practice.
	maxPackOrd = 1<<21 - 1
)

// newMeta packs the fields; callers guarantee the ranges.
func newMeta(pass int, kind spectrum.FragmentKind, fragCharge, slot, fragIndex int) Meta {
	m := Meta(uint32(pass)<<metaPassShift |
		uint32(fragCharge)<<metaChargeShift |
		uint32(slot)<<metaSlotShift |
		uint32(fragIndex))
	if kind == spectrum.YIon {
		m |= metaSeriesBit
	}
	return m
}

// Pass returns the scoring pass (0 = model, 1..3 = null shuffles).
func (m Meta) Pass() int { return int(m>>metaPassShift) & metaPassMask }

// Kind returns the ion series.
func (m Meta) Kind() spectrum.FragmentKind {
	if m&metaSeriesBit != 0 {
		return spectrum.YIon
	}
	return spectrum.BIon
}

// Charge returns the fragment charge.
func (m Meta) Charge() int { return int(m>>metaChargeShift) & metaChargeMask }

// Slot returns the fragment's slot in its pass's emission order — the index
// the per-tier term tables are keyed by.
func (m Meta) Slot() int { return int(m>>metaSlotShift) & metaSlotMask }

// FragIndex returns the 1-based cleavage index.
func (m Meta) FragIndex() int { return int(m) & metaIndexMask }

// Kind selects what a tier indexes.
type Kind uint8

const (
	// KindMatch indexes the model (pass-0) fragments only — the tier the
	// match-statistic walk of Hyper/SharedPeaks/XCorr and the quick
	// prefilter consume.
	KindMatch Kind = iota
	// KindPasses additionally indexes the likelihood null shuffles, so one
	// walk accumulates all four scoring passes.
	KindPasses
)

// Tier is one inverted index over the block at a fixed fragment-charge cap:
// a CSR layout of bin rows over [minBin, minBin+rows), plus the
// query-independent per-ordinal statistics the scan consumes. A Tier is
// written only by the buildTier call that creates it and is read-only once
// Index.Tier has returned it, so any number of ranks may walk it at once.
//
//pepvet:shared
type Tier struct {
	kind     Kind
	maxZ     int
	minBin   int32
	rowStart []int32  // CSR row offsets, len rows+1
	ords     []int32  // KindMatch: row-major candidate ordinals, sorted within each row
	metas    []Meta   // KindMatch: payload parallel to ords
	keys     []uint32 // KindPasses: packed ord|null|slot keys, sorted within each row
	nFrags   []int32  // pass-0 fragment count per ordinal (prefilter denominator)
	pred     []int32  // distinct pass-0 predicted bins per ordinal
	lens     []int32  // peptide length per ordinal (shared across tiers)

	// terms, present on KindPasses tiers, holds the query-independent halves
	// of the likelihood log-ratio terms indexed [pepLen][2·slot] = log(p1)
	// and [2·slot+1] = log(1−p1) (see score.AppendTermBases). One table set
	// serves every query, so the walk's term reads stay cache-resident
	// instead of faulting a per-query memo.
	terms [][]float64
}

// Kind returns what the tier indexes.
func (t *Tier) Kind() Kind { return t.kind }

// MaxZ returns the tier's fragment-charge cap.
func (t *Tier) MaxZ() int { return t.maxZ }

// NFrags returns ordinal ord's pass-0 fragment count.
func (t *Tier) NFrags(ord int) int32 { return t.nFrags[ord] }

// Predicted returns ordinal ord's distinct predicted pass-0 bin count — the
// query-independent half of the shared-peaks statistics.
func (t *Tier) Predicted(ord int) int32 { return t.pred[ord] }

// PepLen returns ordinal ord's residue count.
func (t *Tier) PepLen(ord int) int { return int(t.lens[ord]) }

// slots returns the fragment-slot count of one pass for a peptide of length
// pepLen under this tier's charge cap — identical to the emission count of
// spectrum.AppendFragments.
func (t *Tier) slots(pepLen int) int {
	if pepLen < 2 {
		return 0
	}
	return 2 * (pepLen - 1) * t.maxZ
}

// WindowPostings returns the postings of bin whose ordinal lies in
// [start, end) as parallel ordinal/payload slices — one binary search per
// bound, no closures, no allocation. Match tiers only: passes tiers store
// packed keys instead of the ord/meta pair (see the key constants).
//
//pepvet:hotpath
func (t *Tier) WindowPostings(bin int32, start, end int) ([]int32, []Meta) {
	r := int(bin) - int(t.minBin)
	if r < 0 || r >= len(t.rowStart)-1 {
		return nil, nil
	}
	rs, re := t.rowStart[r], t.rowStart[r+1]
	row := t.ords[rs:re]
	if len(row) == 0 {
		return nil, nil
	}
	loKey, hiKey := int32(start), int32(end)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < loKey {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	first := lo
	hi = len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < hiKey {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return row[first:lo], t.metas[int(rs)+first : int(rs)+lo]
}

// Index owns the lazily built tiers of one block. It is constructed from a
// digest.Index in mass order, so ordinals equal digest positions; tiers are
// keyed by (fragment-charge cap, kind) and built on first demand.
//
// An Index is safe for concurrent readers: the fields set by New never
// change, and each tier has its own single-flight slot — the first Tier call
// for a key builds under that slot's lock while calls for other keys proceed,
// and every later call is one atomic load.
//
//pepvet:shared
type Index struct {
	src  *digest.Index
	mods []chem.Mod
	cfg  score.Config

	lens   []int32 // peptide length per ordinal, shared by every tier
	maxLen int32   // largest peptide length of the block

	pool *BuildPool // build scratch, reused across this pool's indexes

	match  [maxPassCharge + 1]tierSlot // by maxZ
	passes [maxPassCharge + 1]tierSlot // by maxZ
}

// tierSlot single-flights one tier: t is nil until the build that holds mu
// publishes it.
type tierSlot struct {
	t  atomic.Pointer[Tier]
	mu sync.Mutex
}

// New prepares an index over the block with build scratch of its own; tiers
// are built on first Tier call.
func New(src *digest.Index, mods []chem.Mod, cfg score.Config) *Index {
	return NewPooled(src, mods, cfg, nil)
}

// NewPooled is New with the tier builds drawing their scratch from pool, so
// the indexes of one run's blocks share a few scratch sets instead of each
// build allocating its own. A nil pool gives the index a private one.
func NewPooled(src *digest.Index, mods []chem.Mod, cfg score.Config, pool *BuildPool) *Index {
	if pool == nil {
		pool = NewBuildPool()
	}
	x := &Index{src: src, mods: mods, cfg: cfg, pool: pool}
	x.lens = make([]int32, src.Len())
	for i := range x.lens {
		x.lens[i] = int32(src.SeqLen(i))
		if x.lens[i] > x.maxLen {
			x.maxLen = x.lens[i]
		}
	}
	return x
}

// Len returns the candidate count of the block.
func (x *Index) Len() int { return len(x.lens) }

// Tier returns the (maxZ, kind) tier, building it on first use; every caller
// of one key gets the same pointer. It returns nil for a charge cap above
// MaxFragmentCharge, which a Meta cannot carry (core.Options.Validate refuses
// the fragment-index scan there), and for KindPasses also when the block
// cannot carry pass postings (fragment slot or ordinal beyond the packable
// range) — callers fall back to full scoring.
func (x *Index) Tier(maxZ int, kind Kind) *Tier {
	if maxZ < 1 {
		maxZ = 1
	}
	if maxZ > maxPassCharge {
		return nil
	}
	s := &x.match[maxZ]
	if kind == KindPasses {
		if x.maxSlots(maxZ) > maxSlot+1 || x.Len() > maxPackOrd {
			return nil
		}
		s = &x.passes[maxZ]
	}
	if t := s.t.Load(); t != nil {
		return t
	}
	return x.buildOnce(s, maxZ, kind)
}

// buildOnce builds s's tier unless a concurrent caller already has.
func (x *Index) buildOnce(s *tierSlot, maxZ int, kind Kind) *Tier {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.t.Load(); t != nil {
		return t
	}
	t := x.buildTier(maxZ, kind)
	s.t.Store(t)
	return t
}

// maxSlots returns the largest per-pass fragment-slot count of the block at
// a charge cap.
func (x *Index) maxSlots(maxZ int) int {
	if x.maxLen < 2 {
		return 0
	}
	return 2 * (int(x.maxLen) - 1) * maxZ
}

// buildTier enumerates every fragment of every candidate (and, for
// KindPasses, of its deterministic null shuffles) exactly once, in ordinal
// then emission order, and counting-sorts the postings into bin rows. The
// scatter preserves the ordinal order within each row. Build cost is one
// fragment generation pass over the block — the work the scan then never
// repeats per query. The pre-sort posting streams live in pooled scratch;
// only the returned tier's own arrays are allocated.
//
//pepvet:hotpath
func (x *Index) buildTier(maxZ int, kind Kind) *Tier {
	n := x.src.Len()
	theo := x.cfg.Theoretical
	theo.MaxFragmentCharge = maxZ
	width := x.cfg.FragmentBinWidth()
	nPasses := 1
	if kind == KindPasses {
		nPasses = 1 + score.NullShuffles
	}

	t := &Tier{kind: kind, maxZ: maxZ, lens: x.lens}
	t.nFrags = make([]int32, n)
	t.pred = make([]int32, n)
	if kind == KindPasses {
		t.terms = make([][]float64, x.maxLen+1)
		for pl := int32(2); pl <= x.maxLen; pl++ {
			t.terms[pl] = score.AppendTermBases(nil, int(pl), maxZ)
		}
	}

	total := 0
	for _, l := range x.lens {
		if l >= 2 {
			total += 2 * (int(l) - 1) * maxZ
		}
	}
	total *= nPasses

	// The pre-sort streams, in enumeration order (ordinal, pass, slot): each
	// posting's bin and, for match tiers, its payload. Ordinals and pass
	// keys are not stored — every pass of a candidate emits nFrags[ord]
	// fragments (see Tier.slots), so the scatter below re-derives them by
	// walking the same order.
	//
	// A scratch set serves tiers of several charge caps and blocks in an
	// order the scheduler picks. Sizing it for the largest cap a scan asks
	// for (EffectiveMaxFragmentCharge never exceeds the configured one),
	// plus headroom for a somewhat larger block, makes the first allocation
	// the last whatever that order is — so a run's allocation volume repeats.
	room := total / maxZ * max(maxZ, x.cfg.Theoretical.MaxFragmentCharge)
	room += room / 8
	bs := x.pool.get()
	defer x.pool.put(bs)
	binsOf := emptied(bs.bins, total, room)
	metasOf := bs.metas[:0]
	if kind == KindMatch {
		metasOf = emptied(bs.metas, total, room)
	}

	pm := &bs.pm
	fragBuf, deltaBuf := bs.frags, bs.deltas
	nullPep, nullDel := bs.nullPep, bs.nullDel
	minBin, maxBin := int32(0), int32(-1)
	for ord := 0; ord < n; ord++ {
		pep := x.src.At(ord)
		deltas := pep.AppendModDeltas(deltaBuf, x.mods)
		if deltas != nil {
			deltaBuf = deltas
		}
		pm.reset()
		for pass := 0; pass < nPasses; pass++ {
			seq, del := pep.Seq, deltas
			if pass > 0 {
				// Salt k produces the k-th null shuffle; passes are 1-based.
				np, nd := score.ShuffledInto(nullPep, nullDel, pep.Seq, deltas, uint64(pass-1))
				nullPep = np
				if nd != nil {
					nullDel = nd
				}
				seq, del = np, nd
			}
			fragBuf = spectrum.AppendFragments(fragBuf[:0], seq, del, 1, theo)
			if pass == 0 {
				t.nFrags[ord] = int32(len(fragBuf))
			}
			for slot := range fragBuf {
				f := &fragBuf[slot]
				b := spectrum.BinIndex(f.MZ, width)
				binsOf = append(binsOf, b)
				if kind == KindMatch {
					// Match walks read only ordinal and series; slot stays 0.
					metasOf = append(metasOf, newMeta(pass, f.Kind, f.Charge, 0, f.Index))
				}
				if maxBin < minBin {
					minBin, maxBin = b, b
				} else {
					if b < minBin {
						minBin = b
					}
					if b > maxBin {
						maxBin = b
					}
				}
				if pass == 0 && pm.add(b) {
					t.pred[ord]++
				}
			}
		}
	}
	// Hand the (possibly regrown) buffers back for the next build.
	bs.bins, bs.metas = binsOf, metasOf
	bs.frags, bs.deltas, bs.nullPep, bs.nullDel = fragBuf, deltaBuf, nullPep, nullDel

	if len(binsOf) == 0 {
		t.minBin = 0
		t.rowStart = make([]int32, 1)
		return t
	}
	rows := int(maxBin-minBin) + 1
	t.minBin = minBin
	t.rowStart = make([]int32, rows+1)
	for _, b := range binsOf {
		t.rowStart[int(b-minBin)+1]++
	}
	for r := 0; r < rows; r++ {
		t.rowStart[r+1] += t.rowStart[r]
	}
	fill := emptied(bs.fill, rows, rows)[:rows]
	clear(fill)
	bs.fill = fill
	k := 0
	if kind == KindPasses {
		t.keys = make([]uint32, len(binsOf))
		for ord := 0; ord < n; ord++ {
			nf := uint32(t.nFrags[ord])
			for pass := 0; pass < nPasses; pass++ {
				key := uint32(ord) << keyOrdShift
				if pass != 0 {
					key |= 1 << keyNullShift
				}
				for slot := uint32(0); slot < nf; slot++ {
					r := int(binsOf[k] - minBin)
					t.keys[t.rowStart[r]+fill[r]] = key | slot
					fill[r]++
					k++
				}
			}
		}
	} else {
		t.ords = make([]int32, len(binsOf))
		t.metas = make([]Meta, len(binsOf))
		for ord := 0; ord < n; ord++ {
			for nf := t.nFrags[ord]; nf > 0; nf-- {
				r := int(binsOf[k] - minBin)
				at := t.rowStart[r] + fill[r]
				t.ords[at] = int32(ord)
				t.metas[at] = metasOf[k]
				fill[r]++
				k++
			}
		}
	}
	return t
}

// marks is an epoch-stamped bin membership table (the binMarks pattern of
// internal/score) used to count distinct predicted bins during the build.
type marks struct {
	epoch uint64
	base  int32
	stamp []uint64
}

const marksAlign = 1024

func (m *marks) reset() { m.epoch++ }

// add marks bin and reports whether it was not yet marked this epoch.
func (m *marks) add(bin int32) bool {
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

func (m *marks) grow(bin int32) {
	lo, hi := m.base, m.base+int32(len(m.stamp))
	if len(m.stamp) == 0 {
		lo, hi = bin, bin
	}
	if bin < lo {
		lo = bin
	}
	if bin >= hi {
		hi = bin + 1
	}
	lo = (lo / marksAlign) * marksAlign
	if lo > bin {
		lo -= marksAlign
	}
	n := int(hi-lo) + marksAlign
	stamp := make([]uint64, n)
	if len(m.stamp) > 0 {
		copy(stamp[int(m.base-lo):], m.stamp)
	}
	m.base, m.stamp = lo, stamp
}
