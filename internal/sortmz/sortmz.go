// Package sortmz implements the parallel counting sort that Algorithm B
// runs as a preprocessing step (paper step B2): database sequences are
// globally sorted by their parent m/z so that, during query processing,
// each rank only needs to fetch blocks from the subset of ranks ("sender
// group") whose mass range can produce candidates for its local queries.
//
// The sort follows the paper exactly: the parent m/z values are bounded
// integers (the paper uses the range [1, 300000]), so each rank builds a
// local count array, the ranks combine it into a global count array with an
// allreduce, partition pivots are derived so every rank receives O(N/p)
// residues, and the sequences are redistributed with a personalized
// all-to-all exchange. Sequences with the same integer m/z land on the same
// rank.
package sortmz

import (
	"errors"
	"fmt"
	"sort"

	"pepscale/internal/chem"
	"pepscale/internal/cluster"
	"pepscale/internal/fasta"
	"pepscale/internal/wire"
)

// MaxKey caps the integer m/z key, mirroring the paper's bounded range.
const MaxKey = 300000

// Params configure the sort.
type Params struct {
	// MassType selects the parent-mass scale for keys.
	MassType chem.MassType
	// RingAllreduce, when true (the default used by Algorithm B), charges
	// the large count-array allreduce at ring-algorithm cost — p rounds of
	// the full vector — matching the behaviour the paper observed, where
	// "the overhead due to its sorting step was becoming dominant as
	// processor size was increased". When false the tree cost of the
	// generic collective applies.
	RingAllreduce bool
}

// Seq is one keyed sequence: the global protein index travels with the
// record through redistribution.
type Seq struct {
	GID int32
	Rec fasta.Record
	Key int32
}

// Boundary is one rank's inclusive key range after sorting; Lo > Hi marks
// an empty rank.
type Boundary struct {
	Lo, Hi int32
}

// Empty reports whether the boundary covers no keys.
func (b Boundary) Empty() bool { return b.Lo > b.Hi }

// Result is the outcome of the parallel sort on one rank.
type Result struct {
	// Local holds this rank's slice of the globally sorted database,
	// ordered by ascending key.
	Local []Seq
	// Boundaries is the p-tuple table of per-rank key ranges (the paper's
	// (begin_i, end_i) tuples) used to compute sender groups.
	Boundaries []Boundary
	// SortSec is the virtual time this rank spent inside the sort.
	SortSec float64
}

// Key returns the integer sort key of a sequence: its parent m/z at charge
// 1 (== neutral mass + one proton), clamped to [0, MaxKey].
func Key(seq []byte, t chem.MassType) int32 {
	m := chem.ResidueSum(seq, chem.Table(t))
	if t == chem.Average {
		m += chem.WaterAvg
	} else {
		m += chem.WaterMono
	}
	m += chem.ProtonMass
	if m < 0 {
		return 0
	}
	if m > MaxKey {
		return MaxKey
	}
	return int32(m)
}

// SenderGroupStart returns the lowest rank index whose boundary can contain
// keys >= minKey — the paper's i′. Ranks below it hold only lighter
// sequences and need not be contacted. It returns p when no rank qualifies.
func SenderGroupStart(bounds []Boundary, minKey int32) int {
	for i, b := range bounds {
		if !b.Empty() && b.Hi >= minKey {
			return i
		}
	}
	return len(bounds)
}

// Sort runs the parallel counting sort. local carries this rank's database
// block with global protein indices already assigned; the returned Result
// holds the redistributed, locally sorted slice.
func Sort(r *cluster.Rank, local []Seq, p Params) (*Result, error) {
	t0 := r.Time()
	cost := r.Cost()
	size := r.Size()

	// Step S1: key every local sequence and find the global maximum m/z.
	var residues int
	maxKey := int64(0)
	for i := range local {
		local[i].Key = Key(local[i].Rec.Seq, p.MassType)
		residues += len(local[i].Rec.Seq)
		if int64(local[i].Key) > maxKey {
			maxKey = int64(local[i].Key)
		}
	}
	r.Compute(cost.SortSecPerKey * float64(residues))
	globalMax := r.AllreduceInt64(cluster.OpMax, maxKey)
	if globalMax > MaxKey {
		return nil, fmt.Errorf("sortmz: key %d exceeds bound %d", globalMax, MaxKey)
	}

	// Step S2a: local count array, weighted by sequence length so the
	// partition balances residues (the paper: "the sum of the lengths of
	// the sequences resulting in each processor is O(N/p)").
	counts := make([]int64, globalMax+1)
	for _, s := range local {
		counts[s.Key] += int64(len(s.Rec.Seq))
	}
	r.Compute(cost.SortSecPerKey * float64(len(local)))
	global := r.AllreduceInt64Vec(cluster.OpSum, counts)
	if p.RingAllreduce && size > 1 {
		// The tree collective already charged ⌈log₂p⌉ rounds; top up to the
		// ring algorithm's p rounds of the full vector.
		extraRounds := size - cluster.TreeSteps(size)
		if extraRounds > 0 {
			r.ChargeComm(float64(extraRounds) * cost.XferSec(8*len(global), size))
		}
	}

	// Step S2b: derive partition pivots from the global count array.
	owner := ComputeOwners(global, size)
	r.Compute(cost.SortSecPerKey * float64(len(global)))

	// Step S2c: redistribute with Alltoallv.
	outbound := make([][]Seq, size)
	for _, s := range local {
		o := owner[s.Key]
		outbound[o] = append(outbound[o], s)
	}
	sendBufs := make([][]byte, size)
	for j := 0; j < size; j++ {
		sendBufs[j] = MarshalSeqs(outbound[j])
	}
	recvBufs := r.Alltoallv(sendBufs)
	var sorted []Seq
	for _, buf := range recvBufs {
		seqs, err := UnmarshalSeqs(buf)
		if err != nil {
			return nil, fmt.Errorf("sortmz: rank %d: %w", r.ID(), err)
		}
		sorted = append(sorted, seqs...)
	}

	// Local ordering within the rank (counting-sort bucket order is already
	// coarse-correct; finish with a deterministic comparison sort).
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Key != sorted[j].Key {
			return sorted[i].Key < sorted[j].Key
		}
		return sorted[i].GID < sorted[j].GID
	})
	r.Compute(cost.SortSecPerKey * float64(len(sorted)))

	// Boundary tuples: derivable identically on every rank from the global
	// count array and pivots, but exchanged with an Allgather to mirror the
	// paper's implementation (and to double-check agreement).
	lo, hi := int32(1), int32(0)
	if len(sorted) > 0 {
		lo, hi = sorted[0].Key, sorted[len(sorted)-1].Key
	}
	tuples := r.Allgather(encodeBoundary(Boundary{Lo: lo, Hi: hi}))
	bounds := make([]Boundary, size)
	for i, b := range tuples {
		var err error
		if bounds[i], err = decodeBoundary(b); err != nil {
			return nil, fmt.Errorf("sortmz: rank %d: boundary of rank %d: %w", r.ID(), i, err)
		}
	}

	return &Result{Local: sorted, Boundaries: bounds, SortSec: r.Time() - t0}, nil
}

// ComputeOwners assigns each key bucket of a global weighted count array
// to a rank such that cumulative weight is balanced and a bucket is never
// split across ranks (the counting sort's pivot rule). Buckets with zero
// weight get owner −1. Every rank derives the identical table from the
// identical global array.
func ComputeOwners(global []int64, ranks int) []int32 {
	var total int64
	for _, c := range global {
		total += c
	}
	owner := make([]int32, len(global))
	var cum int64
	for k, c := range global {
		if c == 0 {
			owner[k] = -1
			continue
		}
		// Midpoint rule keeps assignment stable against boundary keys.
		mid := cum + (c+1)/2
		o := int32(0)
		if total > 0 {
			o = int32((mid * int64(ranks)) / (total + 1))
		}
		if o >= int32(ranks) {
			o = int32(ranks) - 1
		}
		owner[k] = o
		cum += c
	}
	return owner
}

// errWire reports a sequence image or boundary tuple that fails structural
// validation.
var errWire = errors.New("sortmz: corrupt wire blob")

// encodeBoundary encodes a boundary tuple as [lo int32][hi int32].
func encodeBoundary(b Boundary) []byte {
	return wire.U32(wire.U32(make([]byte, 0, 8), uint32(b.Lo)), uint32(b.Hi))
}

// decodeBoundary parses a tuple written by encodeBoundary.
func decodeBoundary(buf []byte) (Boundary, error) {
	cur := wire.NewReader(buf, errWire)
	b := Boundary{Lo: int32(cur.U32()), Hi: int32(cur.U32())}
	return b, cur.Finish()
}

// MarshalSeqs encodes sequences compactly for the wire:
// [gid int32][key int32][idLen u16][seqLen u32][id][seq] per record.
func MarshalSeqs(seqs []Seq) []byte {
	var n int
	for _, s := range seqs {
		n += 4 + 4 + 2 + 4 + len(s.Rec.ID) + len(s.Rec.Seq)
	}
	out := make([]byte, 0, n)
	for _, s := range seqs {
		out = wire.U32(out, uint32(s.GID))
		out = wire.U32(out, uint32(s.Key))
		out = wire.U16(out, uint16(len(s.Rec.ID)))
		out = wire.U32(out, uint32(len(s.Rec.Seq)))
		out = append(out, s.Rec.ID...)
		out = append(out, s.Rec.Seq...)
	}
	return out
}

// UnmarshalSeqs parses an image written by MarshalSeqs; the empty image is
// the empty list. Every error wraps errWire.
func UnmarshalSeqs(buf []byte) ([]Seq, error) {
	cur := wire.NewReader(buf, errWire)
	var out []Seq
	for cur.Len() > 0 {
		s := Seq{GID: int32(cur.U32()), Key: int32(cur.U32())}
		idLen := int(cur.U16())
		seqLen := cur.Count(1)
		s.Rec.ID = string(cur.Bytes(idLen))
		s.Rec.Seq = make([]byte, seqLen)
		copy(s.Rec.Seq, cur.Bytes(seqLen))
		out = append(out, s)
	}
	if err := cur.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}
