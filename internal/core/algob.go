package core

import (
	"sort"

	"pepscale/internal/cluster"
	"pepscale/internal/digest"
	"pepscale/internal/score"
	"pepscale/internal/sortmz"
	"pepscale/internal/topk"
)

// algorithmBBody is the paper's Algorithm B, per rank:
//
//	B1. Load block Di and query share Qi as in Algorithm A.
//	B2. Parallel counting sort of the database by parent m/z
//	    (internal/sortmz): Allreduce for the global maximum, global count
//	    array, Alltoallv redistribution; each rank ends with a sorted
//	    O(N/p)-residue slice Dsi and the p boundary tuples.
//	B3. Query processing as in Algorithm A, restricted to the sender group
//	    {Pi′ … Pp−1}: only ranks whose sorted slice can contain candidates
//	    for the local minimum query mass are fetched. The local query set
//	    is kept m/z-sorted and binary search limits which queries are
//	    compared against each block.
func algorithmBBody(r *cluster.Rank, in Input, opt Options, sh *shared) error {
	p, id := r.Size(), r.ID()
	t0 := r.Time()
	r.SetPhase("load")
	l, err := loadPhase(r, in, opt, sh.cache, p, id)
	if err != nil {
		return err
	}
	loadSec := r.Time() - t0
	r.SetPhase("sort")

	// B2: parallel counting sort by parent m/z.
	seqs := make([]sortmz.Seq, len(l.recs))
	for i, rec := range l.recs {
		seqs[i] = sortmz.Seq{GID: l.bases[id] + int32(i), Rec: rec}
	}
	sorted, err := sortmz.Sort(r, seqs, sortmz.Params{MassType: opt.Digest.MassType, RingAllreduce: true})
	if err != nil {
		return err
	}
	blockBytes := sortmz.MarshalSeqs(sorted.Local)
	// Di is superseded by Dsi: at most three of the four database buffers
	// are live at any point (paper's Algorithm B analysis).
	r.NoteAlloc(int64(len(blockBytes)))
	r.NoteFree(int64(len(l.myBytes)))
	r.Expose(dbWindow, blockBytes)
	r.Barrier()

	// Keep Qi sorted by parent mass; remember original positions.
	order := make([]int, len(l.qs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		qa, qb := l.qs[order[a]], l.qs[order[b]]
		if qa.ParentMass != qb.ParentMass {
			return qa.ParentMass < qb.ParentMass
		}
		return order[a] < order[b]
	})
	qsSorted := make([]*score.Query, len(order))
	listsSorted := make([]*topk.List, len(order))
	indices := make([]int, len(order))
	for i, o := range order {
		qsSorted[i] = l.qs[o]
		listsSorted[i] = l.lists[o]
		indices[i] = l.qlo + o
	}
	l.qs, l.lists = qsSorted, listsSorted
	r.Compute(r.Cost().SortSecPerKey * float64(len(order)))
	r.SetPhase("scan")

	// Sender group: ranks that can hold candidates for the lightest local
	// query. A database sequence can only contribute peptides at least as
	// light as itself, so ranks whose key range tops out below the minimum
	// query window are never fetched.
	var candidates int64
	if len(qsSorted) > 0 {
		minLo, _ := opt.Tol.Window(qsSorted[0].ParentMass)
		minKey := int32(minLo)
		if minKey < 0 {
			minKey = 0
		}
		istart := sortmz.SenderGroupStart(sorted.Boundaries, minKey)
		gsz := p - istart
		if gsz > 0 {
			// A rank below the sender group starts the cycle at its head.
			candidates, err = bTransportLoop(r, l, opt, sorted, blockBytes, istart, gsz, max(id-istart, 0))
			if err != nil {
				return err
			}
		}
	}
	return finishRun(r, l, sh, indices, loadSec, sorted.SortSec, candidates)
}

// bTransportLoop walks the sender group: each visit decodes the owner's
// sorted slice and scans the queries whose window can reach it.
func bTransportLoop(r *cluster.Rank, l *loaded, opt Options, sorted *sortmz.Result, ownRaw []byte, first, n, start int) (int64, error) {
	id := r.ID()
	var candidates int64
	err := walkBlocks(r, first, n, start, opt.Masking, func(owner int, data []byte) error {
		// Each rank's sorted slice is unique within the run, so the owner rank
		// is the block's cache identity — no content hashing per fetch. The
		// resident slice is read through the cache like a transported one:
		// whichever rank reaches a block first decodes it for all.
		if owner == id {
			data = ownRaw
		}
		key := blockKey(owner, len(data))
		cur, err := l.cache.seqsFor(key, data)
		if err != nil {
			return err
		}

		// Restrict to queries whose window can reach this block: sequences
		// in the block have keys ≤ boundary hi, so only queries with
		// window-lo below that can find candidates here.
		hiKey := sorted.Boundaries[owner].Hi
		limit := sort.Search(len(l.qs), func(i int) bool {
			lo, _ := opt.Tol.Window(l.qs[i].ParentMass)
			return lo > float64(hiKey)+1
		})
		blk, err := l.cache.blockFor(key, kindIndex, func() (*digest.Index, error) {
			return digest.NewIndexIDs(cur.recs, cur.gids, opt.Digest)
		})
		if err != nil {
			return err
		}
		candidates += l.scanBlock(r, opt, l.qs[:limit], l.lists[:limit], cur.recs, blk, cur.idOf)
		return nil
	})
	return candidates, err
}
