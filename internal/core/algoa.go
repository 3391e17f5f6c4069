package core

import (
	"encoding/binary"
	"fmt"

	"pepscale/internal/cluster"
	"pepscale/internal/fasta"
	"pepscale/internal/score"
	"pepscale/internal/topk"
)

// dbWindow is the RMA window name under which every rank exposes its
// resident database block.
const dbWindow = "db"

// loaded is the common outcome of the parallel loading step (paper steps
// A1/B1): this rank's database block, the global protein-index bases of
// every block, and the conditioned local query set.
type loaded struct {
	// blocks is the number of database blocks in this rank's universe
	// (p for Algorithms A/B; the group size for SubGroup).
	blocks int
	// myBlock is this rank's block index within the universe.
	myBlock int
	// myBytes is the raw FASTA image of the resident block Di.
	myBytes []byte
	// recs is the parsed resident block.
	recs []fasta.Record
	// bases[b] is the global protein index of block b's first record.
	bases []int32
	// qlo/qhi is the rank's query range in Input.Queries.
	qlo, qhi int
	// qs are the conditioned local queries; lists their top-τ accumulators.
	qs    []*score.Query
	lists []*topk.List
	scanner
}

// scanner is what a rank needs to scan one block: the part of loaded that
// both transport cores (walkBlocks' visits and the sweeper) carry.
type scanner struct {
	// sc is the scoring model.
	sc score.Scorer
	// scan is the rank's persistent sweep state: buffers stay warm and the
	// per-query scoring caches survive across the blocks of the transport
	// loop (the query set is stable within a rank).
	scan scanState
	// cache is the host-side per-run index memoizer (may be nil).
	cache *indexCache
}

// loadPhase performs the balanced parallel load: block myBlock of a
// blocks-way record-aligned partition of the database file, plus this
// rank's 1/p share of the query file, with I/O and conditioning charged to
// the virtual clock. Global protein-index bases are agreed via an
// Allgather of per-rank record counts.
func loadPhase(r *cluster.Rank, in Input, opt Options, cache *indexCache, blocks, myBlock int) (*loaded, error) {
	return loadPhaseOpts(r, in, opt, cache, blocks, myBlock, true)
}

// loadPhaseOpts is loadPhase with query conditioning optional: the
// candidate-transport engine redistributes raw spectra by mass first and
// conditions them at their destination rank.
func loadPhaseOpts(r *cluster.Rank, in Input, opt Options, cache *indexCache, blocks, myBlock int, prepare bool) (*loaded, error) {
	cost := r.Cost()
	l := &loaded{blocks: blocks, myBlock: myBlock, scanner: scanner{cache: cache}}

	ranges := cache.rangesFor(in.DBData, blocks)
	rg := ranges[myBlock]
	l.myBytes = in.DBData[rg.Start:rg.End]
	r.Compute(cost.IOSec(len(l.myBytes)))
	r.NoteAlloc(int64(len(l.myBytes)))
	recs, err := fasta.ParseRange(in.DBData, rg)
	if err != nil {
		return nil, fmt.Errorf("rank %d: load block %d: %w", r.ID(), myBlock, err)
	}
	l.recs = recs

	// Agree on global protein-index bases. Every rank contributes its own
	// record count; block b's count is taken from the first rank holding
	// block b (ranks of group 0 when blocks < p).
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(len(recs)))
	counts := r.Allgather(cnt[:])
	l.bases = make([]int32, blocks)
	var acc int32
	for b := 0; b < blocks; b++ {
		l.bases[b] = acc
		acc += int32(binary.LittleEndian.Uint64(counts[b]))
	}

	// Query loading: rank i receives roughly m/p queries.
	l.qlo, l.qhi = share(len(in.Queries), r.Size(), r.ID())
	mySpecs := in.Queries[l.qlo:l.qhi]
	qbytes := queryBytes(mySpecs)
	r.Compute(cost.IOSec(qbytes))
	r.NoteAlloc(int64(qbytes))
	if prepare {
		l.qs = prepareQueries(r, mySpecs, opt.Score)
		l.lists = make([]*topk.List, len(l.qs))
		for i := range l.lists {
			l.lists[i] = topk.New(opt.Tau)
		}
	}

	sc, err := score.New(opt.ScorerName, opt.Score)
	if err != nil {
		return nil, err
	}
	l.sc = sc
	return l, nil
}

// processBlock digests a block of contiguously numbered proteins (base,
// base+1, …) into its mass index (memoized host-side per run, together with
// the fragment index a fragidx-mode scan walks; the clock still charges each
// rank) and scans all given queries against it. key is the block's
// precomputed cache identity (see blockKey) — threading it through the
// transport loops avoids re-hashing every transported block's bytes on every
// iteration. It returns the candidate count.
func (sn *scanner) processBlock(r *cluster.Rank, opt Options, qs []*score.Query, lists []*topk.List, recs []fasta.Record, base int32, key cacheKey) (int64, error) {
	blk, err := sn.cache.indexFor(key, recs, base, opt.Digest)
	if err != nil {
		return 0, err
	}
	return sn.scanBlock(r, opt, qs, lists, recs, blk, blockIDResolver(recs, base)), nil
}

// scanBlock scans the queries against a block's index and charges the
// digestion, scoring, and reporting costs. It returns the candidate count.
func (sn *scanner) scanBlock(r *cluster.Rank, opt Options, qs []*score.Query, lists []*topk.List, recs []fasta.Record, blk *blockIndex, idOf func(int32) string) int64 {
	cost := r.Cost()
	r.Compute(cost.DigestSecPerResidue * float64(fasta.TotalResidues(recs)))
	r.NoteAlloc(blk.foot)
	st := sn.scan.scan(qs, lists, blk, sn.sc, opt, idOf)
	r.Compute(scanComputeSec(cost, sn.sc, st))
	r.NoteFree(blk.foot)
	return st.Candidates
}

// gatherResults charges the reporting cost of this rank's results and
// gathers every member's at comm's first member, which merges them into the
// host-side shared area. total sizes the merge.
func gatherResults(r *cluster.Rank, comm *cluster.Comm, results []QueryResult, total int, sh *shared) error {
	chargeHits(r, results)
	gathered := comm.Gather(0, encodeResults(results))
	if comm.Index() != 0 {
		return nil
	}
	merged, err := mergeGathered(gathered, total)
	sh.merged = merged
	return err
}

// chargeHits charges the cost of reporting results' hits.
func chargeHits(r *cluster.Rank, results []QueryResult) {
	var hits int
	for _, qr := range results {
		hits += len(qr.Hits)
	}
	r.Compute(r.Cost().HitSecPerHit * float64(hits))
}

// finishRun reports this rank's hit lists, gathers everything at rank 0,
// and records the per-rank counters in the host-side shared area. indices
// maps the rank's (possibly reordered) query slots back to their positions
// in Input.Queries.
func finishRun(r *cluster.Rank, l *loaded, sh *shared, indices []int, loadSec, sortSec float64, candidates int64) error {
	r.SetStep(-1)
	r.SetPhase("report")
	if err := gatherResults(r, r.World(), finalizeResults(indices, l.qs, l.lists), l.qhi-l.qlo, sh); err != nil {
		return err
	}
	id := r.ID()
	sh.loadSec[id] = loadSec
	sh.sortSec[id] = sortSec
	sh.candidates[id] = candidates
	sh.queries[id] = len(l.qs)
	return nil
}

// walkBlocks is the paper's one transport idea, written once: visit the
// block of each rank of a cycle in turn while a one-sided get for the next
// block is in flight. The cycle is the n ranks first..first+n−1; step s
// visits the dbWindow of rank first + (start+s) mod n. When step 0's owner is
// this rank, its resident block is visited without a fetch and that visit's
// data is nil. With masking the next get is issued before the visit and
// completed after it; without, it is issued only after the visit (the
// paper's no-masking comparison version).
//
// The walk holds Dcomp and Drecv together, as the paper's space bound says:
// the previous transported block is released only after the next one has
// arrived. The checkpointed sweep (sweep.go) frees after each scan instead,
// which is one reason the two are separate cores. On the host the two are
// two buffers swapped on arrival, so visit must not keep a reference into
// data once it returns (the run cache's decoders copy out of it).
func walkBlocks(r *cluster.Rank, first, n, start int, masking bool, visit func(owner int, data []byte) error) error {
	var data, drecv []byte
	var held int64 // transported Dcomp footprint (0 while the resident block is current)
	arrive := func(pending *cluster.Pending) error {
		d, err := pending.WaitInto(drecv)
		if err != nil {
			return err
		}
		r.NoteAlloc(int64(len(d))) // Drecv materialized
		if held > 0 {
			r.NoteFree(held) // previous transported block released
		}
		data, drecv, held = d, data, int64(len(d))
		return nil
	}
	ownerAt := func(s int) int { return first + (start+s)%n }
	for s := 0; s < n; s++ {
		owner := ownerAt(s)
		r.SetStep(s)
		if s == 0 && owner != r.ID() {
			// First block is remote: nothing to mask against yet.
			if err := arrive(r.Get(owner, dbWindow)); err != nil {
				return err
			}
		}
		var pending *cluster.Pending
		if masking && s+1 < n {
			pending = r.Get(ownerAt(s+1), dbWindow)
		}
		if err := visit(owner, data); err != nil {
			return err
		}
		if s+1 < n {
			if !masking {
				pending = r.Get(ownerAt(s+1), dbWindow)
			}
			if err := arrive(pending); err != nil {
				return err
			}
		}
	}
	if held > 0 {
		r.NoteFree(held)
	}
	return nil
}

// cycleBody is the paper's Algorithm A, per rank, run inside each of groups
// equal sub-groups of gs = p/groups ranks:
//
//	A1. Load block Di and the local query share Qi in parallel; expose Di.
//	A2. For s = 0 .. gs−1: issue a non-blocking one-sided get for block
//	    (i+s+1) mod gs (masking), generate candidates on the fly from the
//	    current block, score Qi against them while the transfer proceeds,
//	    then complete the get.
//	A3. Report the τ best hits per local query; gather at rank 0.
//
// Algorithm A is the one-group case on the world communicator. The SubGroup
// engine is the extension the paper proposes for medium-range inputs
// ("processors can divide themselves into smaller sub-groups, where the
// database is partitioned within each sub-group and the query set is
// partitioned across sub-groups"): each rank holds an O(N/gs) block — more
// than Algorithm A's N/p, far below the master–worker's N — and performs
// gs−1 transfers instead of p−1. It splits the world so that transport and
// the exposure epoch stay group-local. split is the caller's choice, not
// inferred from groups: Split is a charged collective, and SubGroup with one
// group still performs it while Algorithm A never does.
func cycleBody(r *cluster.Rank, in Input, opt Options, masking bool, groups int, split bool, sh *shared) error {
	p, id := r.Size(), r.ID()
	gs := p / groups
	if gs < 1 {
		return fmt.Errorf("core: %d groups exceed %d ranks", groups, p)
	}
	local := id % gs
	first := id - local // the group's lowest rank
	t0 := r.Time()
	r.SetPhase("load")
	l, err := loadPhase(r, in, opt, sh.cache, gs, local)
	if err != nil {
		return err
	}
	// Split stays after loadPhase's Allgather and before Expose: moving a
	// charged collective moves every later event of the trace.
	comm := r.World()
	if split {
		comm = comm.Split(id/gs, local)
	}
	r.Expose(dbWindow, l.myBytes)
	comm.Barrier()
	loadSec := r.Time() - t0
	r.SetPhase("scan")

	// Blocks are identical across groups (every group partitions the same
	// database the same way), so keying by block index shares the host-side
	// parse/digest between groups.
	var candidates int64
	err = walkBlocks(r, first, gs, local, masking, func(owner int, data []byte) error {
		b := owner - first
		recs, size := l.recs, len(l.myBytes)
		if owner != id {
			size = len(data)
			if recs, err = l.cache.recsFor(blockKey(b, size), data); err != nil {
				return fmt.Errorf("rank %d: block from rank %d: %w", id, owner, err)
			}
		}
		c, err := l.processBlock(r, opt, l.qs, l.lists, recs, l.bases[b], blockKey(b, size))
		candidates += c
		return err
	})
	if err != nil {
		return err
	}
	return finishRun(r, l, sh, queryIndices(l.qlo, l.qhi), loadSec, 0, candidates)
}
