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
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

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
	// Image is this rank's slice of the globally sorted database as one
	// sequence image (see UnmarshalSeqs), its records ordered by ascending
	// (key, gid). It is what Algorithm B exposes to the other ranks.
	Image []byte
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
// block with global protein indices already assigned; Sort sets each
// record's Key. The returned Result holds the redistributed, locally sorted
// slice as one sequence image.
//
// Each record's bytes are written twice on the host: once into the send
// buffer of the rank that owns its key, sized exactly beforehand, and once
// from the received buffers into the sorted image. The collectives hand the
// buffers over without copying them.
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
	piv := Pivots(global, size)
	r.Compute(cost.SortSecPerKey * float64(len(global)))

	// Step S2c: redistribute with Alltoallv, each record encoded straight
	// into its owner's exactly sized buffer.
	sizes := make([]int, size)
	for _, s := range local {
		sizes[Owner(piv, s.Key)] += recordSize(s)
	}
	send := make([][]byte, size)
	for j := range send {
		send[j] = make([]byte, 0, sizes[j])
	}
	for _, s := range local {
		o := Owner(piv, s.Key)
		send[o] = appendSeq(send[o], s)
	}
	image, order, err := sortReceived(r.Alltoallv(send))
	if err != nil {
		return nil, fmt.Errorf("sortmz: rank %d: %w", r.ID(), err)
	}
	r.Compute(cost.SortSecPerKey * float64(len(order)))

	// Boundary tuples: derivable identically on every rank from the global
	// count array and pivots, but exchanged with an Allgather to mirror the
	// paper's implementation (and to double-check agreement).
	lo, hi := int32(1), int32(0)
	if len(order) > 0 {
		lo, hi = order[0].key, order[len(order)-1].key
	}
	tuples := r.Allgather(encodeBoundary(Boundary{Lo: lo, Hi: hi}))
	bounds := make([]Boundary, size)
	for i, b := range tuples {
		var err error
		if bounds[i], err = decodeBoundary(b); err != nil {
			return nil, fmt.Errorf("sortmz: rank %d: boundary of rank %d: %w", r.ID(), i, err)
		}
	}

	return &Result{Image: image, Boundaries: bounds, SortSec: r.Time() - t0}, nil
}

// placed locates one received record, recv[src][off:off+n], under its sort
// key and gid.
type placed struct {
	key, gid    int32
	src, off, n int32
}

// sortReceived orders the records of the received buffers by (key, gid), a
// total order because gids are unique, and copies each once into the sorted
// image. It returns the image and where each of its records came from.
func sortReceived(recv [][]byte) ([]byte, []placed, error) {
	var n, total int
	for j, buf := range recv {
		m, _, err := scanImage(buf)
		if err != nil {
			return nil, nil, fmt.Errorf("records from rank %d: %w", j, err)
		}
		n, total = n+m, total+len(buf)
	}
	recs := make([]placed, 0, n)
	for j, buf := range recv {
		for cur := wire.NewReader(buf, errWire); cur.Len() > 0; {
			off := len(buf) - cur.Len()
			gid, key, _, _ := nextSeq(&cur)
			recs = append(recs, placed{key: key, gid: gid, src: int32(j), off: int32(off), n: int32(len(buf) - cur.Len() - off)})
		}
	}
	slices.SortFunc(recs, func(a, b placed) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.gid, b.gid))
	})
	image := make([]byte, 0, total)
	for _, e := range recs {
		image = append(image, recv[e.src][e.off:e.off+e.n]...)
	}
	return image, recs, nil
}

// Pivots derives the counting sort's partition from a global weighted count
// array: rank o owns the keys in [piv[o], piv[o+1]), the last rank every key
// from its pivot up. A key of nonzero weight goes to the rank its weight's
// midpoint falls in, so cumulative weight is balanced and no bucket is split
// across ranks; the midpoint only grows with the key, so ownership is
// monotone and p keys describe it. A key of zero weight goes with the keys
// below it. Every rank derives the identical pivots from the identical
// array.
func Pivots(global []int64, ranks int) []int32 {
	var total int64
	for _, c := range global {
		total += c
	}
	piv := make([]int32, ranks)
	for o := 1; o < ranks; o++ {
		piv[o] = int32(len(global))
	}
	o, cum := 0, int64(0)
	for k, c := range global {
		if c == 0 {
			continue
		}
		// Midpoint rule keeps assignment stable against boundary keys.
		mid := cum + (c+1)/2
		for own := min(int(mid*int64(ranks)/(total+1)), ranks-1); o < own; o++ {
			piv[o+1] = int32(k)
		}
		cum += c
	}
	return piv
}

// Owner returns the rank that owns key under the pivots piv: the last rank
// whose pivot is at most key.
func Owner(piv []int32, key int32) int {
	o, _ := slices.BinarySearch(piv, key+1)
	return o - 1
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

// A sequence image is its records back to back, each
// [gid int32][key int32][idLen u16][seqLen u32][id][seq].
const recordHeader = 4 + 4 + 2 + 4

// recordSize is the bytes appendSeq writes for s.
func recordSize(s Seq) int { return recordHeader + len(s.Rec.ID) + len(s.Rec.Seq) }

// appendSeq appends s to a sequence image: the format's one encoder. An ID's
// length fits its u16 field because the FASTA parser refuses an ID longer
// than fasta.MaxIDLen.
func appendSeq(dst []byte, s Seq) []byte {
	dst = wire.U32(dst, uint32(s.GID))
	dst = wire.U32(dst, uint32(s.Key))
	dst = wire.U16(dst, uint16(len(s.Rec.ID)))
	dst = wire.U32(dst, uint32(len(s.Rec.Seq)))
	return append(append(dst, s.Rec.ID...), s.Rec.Seq...)
}

// nextSeq reads the record at cur; id and seq alias the image. A failed
// read leaves cur failed (see wire.Reader).
func nextSeq(cur *wire.Reader) (gid, key int32, id, seq []byte) {
	gid, key = int32(cur.U32()), int32(cur.U32())
	idLen := int(cur.U16())
	seqLen := cur.Count(1)
	return gid, key, cur.Bytes(idLen), cur.Bytes(seqLen)
}

// scanImage validates a sequence image, reading no more than its bytes,
// and returns its record count and the total length of its IDs. Every error
// wraps errWire.
func scanImage(img []byte) (n, idBytes int, err error) {
	cur := wire.NewReader(img, errWire)
	for ; cur.Len() > 0; n++ {
		_, _, id, _ := nextSeq(&cur)
		idBytes += len(id)
	}
	return n, idBytes, cur.Finish()
}

// Block is a decoded sequence image, one element per record in image order
// in each column.
type Block struct {
	// Recs holds each record's ID and sequence. A Seq aliases the image,
	// capped at its own length so an append to it cannot write into the
	// next record; the IDs share one string.
	Recs []fasta.Record
	GIDs []int32
	Keys []int32
}

// UnmarshalSeqs decodes a sequence image: the format's one decoder. The
// empty image is the empty block. The image must not be written while the
// block is in use. It validates every record before it allocates, and every
// error wraps errWire.
func UnmarshalSeqs(img []byte) (Block, error) {
	n, idBytes, err := scanImage(img)
	if err != nil {
		return Block{}, err
	}
	b := Block{Recs: make([]fasta.Record, n), GIDs: make([]int32, n), Keys: make([]int32, n)}
	// The IDs are written into one builder grown to their total, so it
	// never moves them and each ID is a substring of its final string.
	var ids strings.Builder
	ids.Grow(idBytes)
	cur := wire.NewReader(img, errWire)
	for i := range b.Recs {
		var id []byte
		b.GIDs[i], b.Keys[i], id, b.Recs[i].Seq = nextSeq(&cur)
		ids.Write(id)
		s := ids.String()
		b.Recs[i].ID = s[len(s)-len(id):]
	}
	return b, nil
}
