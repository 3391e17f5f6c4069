package score

// PrepTable keeps the prepared fragment passes of one database block's
// candidates at one effective fragment-charge cap
// (spectrum.EffectiveMaxFragmentCharge), for a sweep that scans the block
// again and again: pepd, whose blocks stay resident for the life of the
// service. Entries are the block index's positions. A pass's bins are a
// pure function of (peptide, mod deltas, cap, Config), so one table serves
// every precursor charge with that cap, and a candidate can read no other
// candidate's bins: the table is per block and per cap, and an entry is one
// peptide of the block.
//
// Pass 0 is stored when an entry is first prepared, null pass k when a
// bound first needs it. Storage is Σ over touched entries of (filled passes
// × 2(len−1)·cap) bins, plus 4 bytes per index entry and a pointer-free
// header per touched one: passes are copied into fixed-size int32 chunks
// and located by (chunk, offset) packed into a uint32, so the garbage
// collector scans one pointer per chunk, not one per pass.
//
// A PrepTable has one writer at a time: it is bound (CandidatePrep.Use) by
// one sweep, and the caller must not share it with a concurrent one.
type PrepTable struct {
	entries int
	// index[e] is 1 + entry e's slot in slots, 0 while e is untouched.
	index  []int32
	slots  []prepSlot
	chunks [][]int32
	used   int // bins used in the last chunk
}

// prepSlot locates the stored passes of one entry.
type prepSlot struct {
	n     int32 // bins per pass (every pass of a candidate has as many)
	ready int32 // passes stored, always a prefix 0..ready−1
	// at[k] is pass k's chunk<<prepChunkShift | offset: a pass starts below
	// prepChunkBins, as a longer one gets a chunk of its own at offset 0.
	at [1 + nullShuffles]uint32
}

// prepChunkBins is the size of a table chunk (64 KiB).
const (
	prepChunkShift = 14
	prepChunkBins  = 1 << prepChunkShift
)

// NewPrepTable returns an empty table for a block index of entries
// positions. It allocates nothing until its first entry is prepared.
func NewPrepTable(entries int) *PrepTable { return &PrepTable{entries: entries} }

// Passes returns how many passes the table holds for entry.
func (t *PrepTable) Passes(entry int) int {
	if t.index == nil || t.index[entry] == 0 {
		return 0
	}
	return int(t.slots[t.index[entry]-1].ready)
}

// Pass returns the stored bins of pass k (0: the model peptide, k ≥ 1:
// null shuffle k−1) of entry, which must hold more than k passes. The
// slice is the table's own storage, capped at its length: read it only.
func (t *PrepTable) Pass(entry, k int) []int32 {
	s := &t.slots[t.index[entry]-1]
	return t.view(s.at[k], int(s.n))
}

// slotOf returns entry's slot, creating an empty one on first use.
func (t *PrepTable) slotOf(entry int) int32 {
	if t.index == nil {
		t.index = make([]int32, t.entries)
	}
	if t.index[entry] == 0 {
		t.slots = append(t.slots, prepSlot{})
		t.index[entry] = int32(len(t.slots))
	}
	return t.index[entry] - 1
}

// load points pass[k].bins at the stored passes of slot and returns their
// count.
func (t *PrepTable) load(slot int32, pass *[1 + nullShuffles]prepPass) int {
	s := &t.slots[slot]
	for k := int32(0); k < s.ready; k++ {
		pass[k].bins = t.view(s.at[k], int(s.n))
	}
	return int(s.ready)
}

// store copies bins into the table as pass k of slot, which holds passes
// 0..k−1, and returns the stored copy.
func (t *PrepTable) store(slot int32, k int, bins []int32) []int32 {
	n := len(bins)
	last := len(t.chunks) - 1
	if last < 0 || t.used >= prepChunkBins || t.used+n > len(t.chunks[last]) {
		t.chunks = append(t.chunks, make([]int32, max(prepChunkBins, n)))
		last, t.used = last+1, 0
	}
	at := uint32(last)<<prepChunkShift | uint32(t.used)
	copy(t.chunks[last][t.used:], bins)
	t.used += n
	s := &t.slots[slot]
	s.n, s.at[k], s.ready = int32(n), at, int32(k+1)
	return t.view(at, n)
}

// view returns the n stored bins at at, capped so that no append through
// the view can write into the table.
func (t *PrepTable) view(at uint32, n int) []int32 {
	off := int(at & (prepChunkBins - 1))
	return t.chunks[at>>prepChunkShift][off : off+n : off+n]
}
