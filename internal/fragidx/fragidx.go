// Package fragidx builds the inverted fragment-m/z index of one block (the
// MSFragger/Sage-style "fragment index"): for every fragment m/z bin, the
// postings of each candidate fragment falling in that bin.
//
// No engine scans with it. The peptide-major sweep of internal/core
// generates each candidate's model spectrum on the fly from the block it
// scans, as the paper's kernel does; a scan that walked this index instead
// was slower end to end at every query density measured, its build
// included (EXPERIMENTS.md K3). The builder stays as the subject of the
// benchmark's fragidx.* rungs (bench/layers.go), which time it: only bench
// and this package's tests import it.
//
// The index is built from a digest.Index in mass order, so candidate
// ordinals coincide with the digest's peptide positions. A tier packs each
// posting — a fragment of a candidate's model peptide or of one of its
// likelihood null shuffles — into a single uint32 key `ord<<11 | null<<10 |
// slot`, and its postings within a bin row are sorted by ordinal: candidates
// are enumerated in ordinal order and the counting sort into rows is stable.
//
// Tiers are pure functions of the block's peptides and the scoring
// configuration, so a rebuilt index is bit-identical to the original. An
// Index is not safe for concurrent use.
package fragidx

import (
	"slices"

	"pepscale/internal/chem"
	"pepscale/internal/digest"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
)

// Posting keys pack ordinal, pass, and slot into one uint32:
//
//	bits 31..11  candidate ordinal
//	bit  10      pass selector (0 = model peptide, 1 = any null shuffle)
//	bits  9..0   fragment slot within the pass's emission order
//
// The ordinal in the top bits makes keys order-compatible with ordinals.
const (
	keyOrdShift  = 11
	keyNullShift = 10
	keySlotMask  = 0x3ff

	// maxSlot bounds the packable slot index and maxPackOrd the packable
	// ordinal: a block beyond either has no tier (Index.Tier returns nil).
	maxSlot    = keySlotMask
	maxPackOrd = 1<<21 - 1

	// maxPassCharge is the largest fragment-charge cap an Index builds a
	// tier for.
	maxPassCharge = 7

	// nPasses is the model peptide plus its likelihood null shuffles.
	nPasses = 1 + score.NullShuffles
)

// Kind selects what a tier indexes.
type Kind uint8

// KindPasses indexes the fragments of every candidate's model peptide and
// of its likelihood null shuffles, the one kind of tier there is.
const KindPasses Kind = iota

// Tier is one inverted index over the block at a fixed fragment-charge cap:
// a CSR layout of bin rows over [minBin, minBin+rows) holding packed keys,
// plus each candidate's model-peptide fragment count.
type Tier struct {
	minBin   int32
	rowStart []int32  // CSR row offsets, len rows+1
	keys     []uint32 // packed ord|null|slot keys, sorted within each row
	nFrags   []int32  // model-peptide fragment count per ordinal
}

// NFrags returns ordinal ord's model-peptide fragment count.
func (t *Tier) NFrags(ord int) int32 { return t.nFrags[ord] }

// Index owns the lazily built tiers of one block, one per fragment-charge
// cap, each built on first demand.
type Index struct {
	src  *digest.Index
	mods []chem.Mod
	cfg  score.Config

	lens   []int32 // peptide length per ordinal
	maxLen int32   // largest peptide length of the block

	tiers [maxPassCharge + 1]*Tier // by charge cap
}

// New prepares an index over the block; tiers are built on first Tier call.
func New(src *digest.Index, mods []chem.Mod, cfg score.Config) *Index {
	x := &Index{src: src, mods: mods, cfg: cfg}
	x.lens = make([]int32, src.Len())
	for i := range x.lens {
		x.lens[i] = int32(src.SeqLen(i))
		x.maxLen = max(x.maxLen, x.lens[i])
	}
	return x
}

// Len returns the candidate count of the block.
func (x *Index) Len() int { return len(x.lens) }

// Tier returns the (maxZ, kind) tier, building it on first use; later calls
// return the same pointer. It returns nil for a charge cap above
// maxPassCharge and for a block that cannot carry the packed keys (fragment
// slot or ordinal beyond the packable range).
func (x *Index) Tier(maxZ int, kind Kind) *Tier {
	maxZ = max(maxZ, 1)
	if kind != KindPasses || maxZ > maxPassCharge || x.maxSlots(maxZ) > maxSlot+1 || x.Len() > maxPackOrd {
		return nil
	}
	if x.tiers[maxZ] == nil {
		x.tiers[maxZ] = x.buildTier(maxZ)
	}
	return x.tiers[maxZ]
}

// maxSlots returns the largest per-pass fragment-slot count of the block at
// a charge cap.
func (x *Index) maxSlots(maxZ int) int {
	if x.maxLen < 2 {
		return 0
	}
	return 2 * (int(x.maxLen) - 1) * maxZ
}

// buildTier enumerates the fragment bins of every candidate and of its null
// shuffles exactly once, in ordinal, pass and slot order, and counting-sorts
// the postings into bin rows, which keeps each row in ordinal order.
func (x *Index) buildTier(maxZ int) *Tier {
	n := x.src.Len()
	theo := x.cfg.Theoretical
	theo.MaxFragmentCharge = maxZ
	width := x.cfg.FragmentBinWidth()
	t := &Tier{nFrags: make([]int32, n)}

	total := 0
	for _, l := range x.lens {
		if l >= 2 {
			total += 2 * (int(l) - 1) * maxZ
		}
	}
	// The postings' bins in enumeration order. Ordinals and passes are not
	// stored: every pass of a candidate emits nFrags[ord] bins, so the
	// scatter below re-derives them by walking the same order.
	bins := make([]int32, 0, total*nPasses)
	var prefix, deltaBuf, nullDel []float64
	var nullPep []byte
	for ord := 0; ord < n; ord++ {
		pep := x.src.At(ord)
		deltas := pep.AppendModDeltas(deltaBuf, x.mods)
		if deltas != nil {
			deltaBuf = deltas
		}
		from := len(bins)
		bins, prefix = spectrum.AppendBins(bins, prefix, pep.Seq, deltas, 1, theo, width)
		t.nFrags[ord] = int32(len(bins) - from)
		for salt := uint64(0); salt < score.NullShuffles; salt++ {
			np, nd := score.ShuffledInto(nullPep, nullDel, pep.Seq, deltas, salt)
			nullPep = np
			if nd != nil {
				nullDel = nd
			}
			bins, prefix = spectrum.AppendBins(bins, prefix, np, nd, 1, theo, width)
		}
	}

	if len(bins) == 0 {
		t.rowStart = make([]int32, 1)
		return t
	}
	t.minBin = slices.Min(bins)
	rows := int(slices.Max(bins)-t.minBin) + 1
	t.rowStart = make([]int32, rows+1)
	for _, b := range bins {
		t.rowStart[b-t.minBin+1]++
	}
	for r := 0; r < rows; r++ {
		t.rowStart[r+1] += t.rowStart[r]
	}
	fill := make([]int32, rows)
	t.keys = make([]uint32, len(bins))
	k := 0
	for ord := 0; ord < n; ord++ {
		nf := uint32(t.nFrags[ord])
		for pass := 0; pass < nPasses; pass++ {
			key := uint32(ord) << keyOrdShift
			if pass != 0 {
				key |= 1 << keyNullShift
			}
			for slot := uint32(0); slot < nf; slot++ {
				r := bins[k] - t.minBin
				t.keys[t.rowStart[r]+fill[r]] = key | slot
				fill[r]++
				k++
			}
		}
	}
	return t
}
