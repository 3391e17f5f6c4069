package core

import (
	"fmt"
	"sort"

	"pepscale/internal/cluster"
	"pepscale/internal/fasta"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
	"pepscale/internal/xhash"
)

// Message tags of the master–worker protocol.
const (
	tagBatch  = "batch"
	tagResult = "result"
	tagStop   = "stop"
)

// batchMsg carries one demand-driven batch of queries from the master.
type batchMsg struct {
	Indices []int
	Specs   []*spectrum.Spectrum
}

// fullDBKey is the memoization key for the whole-database index used by
// the replicated master–worker baseline. Content hashing is fine here: it
// happens once per rank at load time, not inside a transport loop.
func fullDBKey(in Input) cacheKey {
	return cacheKey{hash: xhash.Sum64(in.DBData), size: len(in.DBData)}
}

// masterWorkerBody implements the MSPolygraph baseline (paper steps S1–S4):
// rank 0 is the master and loads the query set; every other rank is a
// worker that caches the ENTIRE database in local memory (the O(N)-space
// property the paper's contribution removes) and processes demand-driven
// query batches. At p = 1 the single rank degenerates into a uni-worker
// serial run.
func masterWorkerBody(r *cluster.Rank, in Input, opt Options, sh *shared) error {
	if r.Size() == 1 {
		return masterWorkerSolo(r, in, opt, sh)
	}
	if r.ID() == 0 {
		return mwMaster(r, in, opt, sh)
	}
	return mwWorker(r, in, opt, sh)
}

// masterWorkerSolo is the degenerate single-rank configuration: a
// uni-worker MSPolygraph run on the virtual machine.
func masterWorkerSolo(r *cluster.Rank, in Input, opt Options, sh *shared) error {
	cost := r.Cost()
	t0 := r.Time()
	r.SetPhase("load")
	r.Compute(cost.IOSec(len(in.DBData)))
	r.NoteAlloc(int64(len(in.DBData)))
	recs, err := sh.cache.recsFor(fullDBKey(in), in.DBData)
	if err != nil {
		return err
	}
	sc, err := score.New(opt.ScorerName, opt.Score)
	if err != nil {
		return err
	}
	blk, err := sh.cache.indexFor(fullDBKey(in), recs, 0, opt.Digest)
	if err != nil {
		return err
	}
	r.Compute(cost.DigestSecPerResidue * float64(fasta.TotalResidues(recs)))
	r.NoteAlloc(blk.foot)
	loadSec := r.Time() - t0
	r.SetPhase("scan")

	qs := prepareQueries(r, in.Queries, opt.Score)
	lists := make([]*topk.List, len(qs))
	for i := range lists {
		lists[i] = topk.New(opt.Tau)
	}
	var scan scanState
	st := scan.scan(qs, lists, blk, sc, opt, blockIDResolver(recs, 0))
	r.Compute(scanComputeSec(cost, sc, st))
	sh.merged = finalizeResults(queryIndices(0, len(qs)), qs, lists)
	sh.loadSec[0] = loadSec
	sh.candidates[0] = st.Candidates
	sh.queries[0] = len(qs)
	return nil
}

// mwMaster distributes fixed-size query batches on demand and merges the
// returned hit lists (paper steps S2–S4).
func mwMaster(r *cluster.Rank, in Input, opt Options, sh *shared) error {
	cost := r.Cost()
	r.SetPhase("load")
	m := len(in.Queries)
	qbytes := queryBytes(in.Queries)
	r.Compute(cost.IOSec(qbytes)) // master loads Q into local memory
	r.NoteAlloc(int64(qbytes))

	batch := opt.BatchSize
	if batch < 1 {
		batch = 16
	}
	type span struct{ lo, hi int }
	var spans []span
	for lo := 0; lo < m; lo += batch {
		hi := lo + batch
		if hi > m {
			hi = m
		}
		spans = append(spans, span{lo, hi})
	}
	r.SetPhase("scan")
	sendBatch := func(w int, s span) {
		msg := batchMsg{Indices: queryIndices(s.lo, s.hi), Specs: in.Queries[s.lo:s.hi]}
		r.Send(w, tagBatch, encodeBatch(msg))
	}

	next, active := 0, 0
	for w := 1; w < r.Size(); w++ {
		if next < len(spans) {
			sendBatch(w, spans[next])
			next++
			active++
		} else {
			r.Send(w, tagStop, nil)
		}
	}
	var merged []QueryResult
	for active > 0 {
		from, tag, payload := r.RecvAny()
		if tag != tagResult {
			return fmt.Errorf("core: master received unexpected tag %q from rank %d", tag, from)
		}
		res, err := decodeResults(payload)
		if err != nil {
			return err
		}
		merged = append(merged, res...)
		if next < len(spans) {
			sendBatch(from, spans[next])
			next++
		} else {
			r.Send(from, tagStop, nil)
			active--
		}
	}
	r.SetPhase("report")
	sort.Slice(merged, func(i, j int) bool { return merged[i].Index < merged[j].Index })
	sh.merged = merged
	return nil
}

// mwWorker caches the whole database and processes batches until told to
// stop (paper step S3).
func mwWorker(r *cluster.Rank, in Input, opt Options, sh *shared) error {
	cost := r.Cost()
	t0 := r.Time()
	r.SetPhase("load")
	// "all workers load the entire database D in their respective local
	// memory" — the O(N) space per processor the paper criticizes.
	r.Compute(cost.IOSec(len(in.DBData)))
	r.NoteAlloc(int64(len(in.DBData)))
	recs, err := sh.cache.recsFor(fullDBKey(in), in.DBData)
	if err != nil {
		return err
	}
	sc, err := score.New(opt.ScorerName, opt.Score)
	if err != nil {
		return err
	}
	blk, err := sh.cache.indexFor(fullDBKey(in), recs, 0, opt.Digest)
	if err != nil {
		return err
	}
	r.Compute(cost.DigestSecPerResidue * float64(fasta.TotalResidues(recs)))
	r.NoteAlloc(blk.foot)
	loadSec := r.Time() - t0
	r.SetPhase("scan")
	idOf := blockIDResolver(recs, 0)

	var candidates int64
	var processed int
	var scan scanState // sweep buffers stay warm across batches
	for {
		tag, payload := r.Recv(0)
		if tag == tagStop {
			break
		}
		if tag != tagBatch {
			return fmt.Errorf("core: worker %d received unexpected tag %q", r.ID(), tag)
		}
		b, err := decodeBatch(payload)
		if err != nil {
			return err
		}
		qs := prepareQueries(r, b.Specs, opt.Score)
		lists := make([]*topk.List, len(qs))
		for i := range lists {
			lists[i] = topk.New(opt.Tau)
		}
		st := scan.scan(qs, lists, blk, sc, opt, idOf)
		r.Compute(scanComputeSec(cost, sc, st))
		candidates += st.Candidates
		processed += len(qs)
		r.Send(0, tagResult, encodeResults(finalizeResults(b.Indices, qs, lists)))
	}
	id := r.ID()
	sh.loadSec[id] = loadSec
	sh.candidates[id] = candidates
	sh.queries[id] = processed
	return nil
}
