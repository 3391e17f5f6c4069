// The resilient transport loop: Algorithm A's block-cycled scan hardened
// with epoch checkpoint/restart.
//
// The database is partitioned ONCE into p0 record-aligned blocks (p0 = the
// initial rank count) and the queries into p0 groups — the job's stable
// logical structure, independent of how many ranks survive. On an attempt
// with p′ ≤ p0 live ranks, block b is owned (and exposed) by rank b mod p′
// and group g is driven by rank g mod p′; group g scans blocks (g+s) mod p0
// for s = 0..p0−1, which at p′ = p0 is exactly Algorithm A's schedule. Every
// CheckpointEvery steps a group's recovery state — top-τ hit lists, the
// step cursor s, the candidate counter — is serialized (internal/ckpt) to
// the host-side stable store, its write charged as I/O on the virtual
// clock.
//
// When a rank fails (cluster.RunReport.Recoverable), the driver re-runs the
// body on the survivors: the lost rank's blocks and groups re-partition
// round-robin among p′−1 ranks, and each group resumes at its checkpointed
// cursor. Final hits are bit-identical to the failure-free run: a top-τ
// list's content is a pure function of the multiset of offers (topk's
// strict total order breaks all ties), each group re-offers exactly the
// post-cursor blocks against the checkpoint that reflects exactly the
// pre-cursor blocks, and the group→block schedule never depends on the
// rank count. Resident memory stays O(N/p′): a rank holds its ⌈p0/p′⌉
// owned blocks plus one transported block plus one block index.
package core

import (
	"encoding/binary"
	"fmt"

	"pepscale/internal/ckpt"
	"pepscale/internal/cluster"
	"pepscale/internal/fasta"
	"pepscale/internal/placement"
	"pepscale/internal/score"
	"pepscale/internal/topk"
	"pepscale/internal/trace"
)

// ResilientOptions configures checkpointing and the recovery driver.
type ResilientOptions struct {
	// CheckpointEvery is the number of block steps between checkpoints
	// (0 disables periodic checkpoints: a failed attempt restarts its
	// groups from scratch).
	CheckpointEvery int
	// MaxAttempts bounds driver re-runs (default: the initial rank count,
	// i.e. tolerate all-but-one rank failing).
	MaxAttempts int
	// Faults[a] is the fault schedule injected into attempt a (missing or
	// nil entries run failure-free).
	Faults []*cluster.FaultPlan
}

// RecoveryAttempt records one driver attempt.
type RecoveryAttempt struct {
	// Ranks is the attempt's live rank count p′.
	Ranks int
	// Err is the attempt's failure (nil for the successful attempt).
	Err error
	// FailedRanks lists the ranks that failed during the attempt.
	FailedRanks []int
	// RunSec is the attempt's parallel virtual time.
	RunSec float64
}

// Recovery summarizes the driver's fault handling for one search.
type Recovery struct {
	// Attempts holds every attempt in order; the last one succeeded.
	Attempts []RecoveryAttempt
	// CheckpointWrites and CheckpointBytes count stable-store traffic.
	CheckpointWrites int64
	CheckpointBytes  int64
}

// dbBlockWindow names the RMA window exposing database block b.
func dbBlockWindow(b int) string {
	return fmt.Sprintf("db%d", b)
}

// RunResilient executes the checkpointed Algorithm-A-style search,
// restarting on the surviving ranks whenever an attempt fails recoverably.
// The returned metrics describe the successful attempt, with RunSec
// accumulating the virtual time of failed attempts (the wall-clock cost of
// the failures); the Recovery return details every attempt.
func RunResilient(cfg cluster.Config, in Input, opt Options, ropt ResilientOptions) (*Result, *Recovery, error) {
	return runResilient(cfg, in, opt, ropt, newIndexCache())
}

// runResilient is RunResilient on the caller's host-side cache, which every
// attempt shares: a block digested or indexed before a crash is not rebuilt
// after it.
func runResilient(cfg cluster.Config, in Input, opt Options, ropt ResilientOptions, cache *indexCache) (*Result, *Recovery, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	p0 := cfg.Ranks
	if p0 < 1 {
		return nil, nil, fmt.Errorf("core: need at least 1 rank, got %d", p0)
	}
	maxAttempts := ropt.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = p0
	}
	store := ckpt.NewStore()
	rec := &Recovery{}
	dead := 0
	var failedSec float64
	var atts []*trace.Attempt
	for attempt := 0; ; attempt++ {
		pLive := p0 - dead
		if pLive < 1 {
			return nil, rec, fmt.Errorf("core: all %d ranks failed", p0)
		}
		c := cfg
		c.Ranks = pLive
		c.Fault = nil
		if attempt < len(ropt.Faults) {
			c.Fault = ropt.Faults[attempt]
		}
		mach, err := cluster.New(c)
		if err != nil {
			return nil, rec, err
		}
		sh := newShared(pLive, cache)
		rep := mach.RunWithReport(func(r *cluster.Rank) error {
			return resilientBody(r, in, opt, ropt, p0, store, sh)
		})
		rec.Attempts = append(rec.Attempts, RecoveryAttempt{
			Ranks:       pLive,
			Err:         rep.Err,
			FailedRanks: rep.FailedRanks,
			RunSec:      mach.MaxTime(),
		})
		rec.CheckpointWrites = store.Writes()
		rec.CheckpointBytes = store.Bytes()
		if att := mach.Trace(fmt.Sprintf("attempt %d: resilient p=%d", attempt, pLive)); att != nil {
			atts = append(atts, att)
		}
		if rep.OK() {
			metrics := buildMetrics("resilient", mach, sh.loadSec, sh.sortSec, sh.candidates, sh.queries)
			metrics.RunSec += failedSec
			for _, qr := range sh.merged {
				metrics.Hits += int64(len(qr.Hits))
			}
			res := &Result{Queries: sh.merged, Metrics: metrics}
			if len(atts) > 0 {
				res.Trace = &trace.Trace{Attempts: atts}
			}
			return res, rec, nil
		}
		if !rep.Recoverable() {
			return nil, rec, rep.Err
		}
		if attempt+1 >= maxAttempts {
			return nil, rec, fmt.Errorf("core: giving up after %d attempts: %w", attempt+1, rep.Err)
		}
		dead += len(rep.FailedRanks)
		failedSec += mach.MaxTime()
	}
}

// rgroup is one query group's in-flight state on its driving rank.
type rgroup struct {
	g          int
	qlo, qhi   int
	qs         []*score.Query
	lists      []*topk.List
	cursor     int
	candidates int64
}

// resilientBody is one attempt's rank program; p0 is the stable logical
// partition width (the initial rank count).
//
// Ownership comes from the placement layer's RoundRobin plan over the
// attempt's ranks 0..p−1, which reproduces the historical modular partition
// (block b and group g on rank b mod p) assignment-for-assignment — the
// refactor changes no owner, no virtual time, and no trace byte.
func resilientBody(r *cluster.Rank, in Input, opt Options, ropt ResilientOptions, p0 int, store *ckpt.Store, sh *shared) error {
	p, id := r.Size(), r.ID()
	cost := r.Cost()
	t0 := r.Time()
	r.SetPhase("load")
	members := make([]int, p)
	for i := range members {
		members[i] = i
	}
	plan, err := placement.RoundRobin(p0, p0, members)
	if err != nil {
		return err
	}

	// Load and expose the owned blocks of the stable p0-way partition.
	type ownedBlock struct {
		raw  []byte
		recs []fasta.Record
	}
	ranges := fasta.Ranges(in.DBData, p0)
	myBlocks := plan.BlocksOf(id)
	owned := make(map[int]*ownedBlock, len(myBlocks))
	for _, b := range myBlocks {
		rg := ranges[b]
		raw := in.DBData[rg.Start:rg.End]
		r.Compute(cost.IOSec(len(raw)))
		r.NoteAlloc(int64(len(raw)))
		recs, err := sh.cache.recsFor(blockKey(b, len(raw)), raw)
		if err != nil {
			return fmt.Errorf("rank %d: load block %d: %w", id, b, err)
		}
		owned[b] = &ownedBlock{raw: raw, recs: recs}
		r.Expose(dbBlockWindow(b), raw)
	}

	// Agree on global protein-index bases: each rank contributes its owned
	// blocks' record counts (ascending block order).
	payload := make([]byte, 8*len(myBlocks))
	for i, b := range myBlocks {
		binary.LittleEndian.PutUint64(payload[8*i:], uint64(len(owned[b].recs)))
	}
	counts := r.Allgather(payload)
	bases := make([]int32, p0)
	nrecs := make([]int32, p0)
	for j := 0; j < p; j++ {
		buf := counts[j]
		for k, b := range plan.BlocksOf(j) {
			nrecs[b] = int32(binary.LittleEndian.Uint64(buf[8*k:]))
		}
	}
	var acc int32
	for b := 0; b < p0; b++ {
		bases[b] = acc
		acc += nrecs[b]
	}

	sc, err := score.New(opt.ScorerName, opt.Score)
	if err != nil {
		return err
	}

	// Build the owned query groups, restoring each from its latest
	// checkpoint if one exists.
	var groups []*rgroup
	for _, g := range plan.GroupsOf(id) {
		qlo, qhi := share(len(in.Queries), p0, g)
		specs := in.Queries[qlo:qhi]
		var qbytes int
		for _, s := range specs {
			qbytes += 64 + 12*len(s.Peaks)
		}
		r.Compute(cost.IOSec(qbytes))
		r.NoteAlloc(int64(qbytes))
		gr := &rgroup{g: g, qlo: qlo, qhi: qhi, qs: prepareQueries(r, specs, opt.Score)}
		gr.lists = make([]*topk.List, len(gr.qs))
		for i := range gr.lists {
			gr.lists[i] = topk.New(opt.Tau)
		}
		if blob, ok := store.Get(int32(g)); ok {
			r.Compute(cost.IOSec(len(blob)))
			cp, err := ckpt.Decode(blob)
			if err != nil {
				return fmt.Errorf("rank %d: restore group %d: %w", id, g, err)
			}
			if int(cp.Group) != g || len(cp.Queries) != len(gr.qs) || int(cp.Cursor) > p0 {
				return fmt.Errorf("rank %d: restore group %d: checkpoint shape mismatch", id, g)
			}
			for i := range cp.Queries {
				for _, h := range cp.Queries[i].Hits {
					gr.lists[i].Offer(h)
				}
			}
			gr.cursor = int(cp.Cursor)
			gr.candidates = cp.Candidates
			if r.Tracing() {
				r.Mark("restore", fmt.Sprintf("group %d resumes at step %d", g, gr.cursor))
			}
		}
		groups = append(groups, gr)
	}
	r.Barrier() // all windows exposed
	loadSec := r.Time() - t0

	// The block sweep, per owned group: fetch block (g+s) mod p0 (local or
	// one-sided get with prefetch masking), scan, checkpoint on the epoch
	// boundary. The shim carries the shared cache, scorer, and the rank's
	// persistent scan state through processBlock.
	shim := &loaded{sc: sc, cache: sh.cache}
	r.SetPhase("scan")
	for _, gr := range groups {
		if len(gr.qs) == 0 {
			gr.cursor = p0
			continue
		}
		var pending *cluster.Pending
		pendingBlock := -1
		for s := gr.cursor; s < p0; s++ {
			r.SetStep(s)
			b := (gr.g + s) % p0
			var recs []fasta.Record
			var key cacheKey
			var alloc int64
			if plan.BlockRank(b) == id {
				ob := owned[b]
				recs, key = ob.recs, blockKey(b, len(ob.raw))
			} else {
				if pending == nil || pendingBlock != b {
					pending = r.Get(plan.BlockRank(b), dbBlockWindow(b))
				}
				data, err := pending.Wait()
				pending, pendingBlock = nil, -1
				if err != nil {
					return err
				}
				alloc = int64(len(data))
				r.NoteAlloc(alloc)
				key = blockKey(b, len(data))
				recs, err = sh.cache.recsFor(key, data)
				if err != nil {
					return fmt.Errorf("rank %d: block %d: %w", id, b, err)
				}
			}
			// Prefetch the next step's block while this one is scanned.
			if opt.Masking && s+1 < p0 {
				nb := (gr.g + s + 1) % p0
				if owner := plan.BlockRank(nb); owner != id {
					pending = r.Get(owner, dbBlockWindow(nb))
					pendingBlock = nb
				}
			}
			c, err := processBlock(r, shim, opt, gr.qs, gr.lists, recs, contiguousGIDs(bases[b], len(recs)), blockIDResolver(recs, bases[b]), key)
			if err != nil {
				return err
			}
			gr.candidates += c
			if alloc > 0 {
				r.NoteFree(alloc)
			}
			gr.cursor = s + 1
			if every := ropt.CheckpointEvery; every > 0 && (gr.cursor%every == 0 || gr.cursor == p0) {
				writeCheckpoint(r, store, gr)
			}
		}
	}
	r.SetStep(-1)
	r.SetPhase("report")

	// Report: finalize every owned group, gather at rank 0.
	var results []QueryResult
	var totalCand int64
	var nq int
	for _, gr := range groups {
		results = append(results, finalizeResults(queryIndices(gr.qlo, gr.qhi), gr.qs, gr.lists)...)
		totalCand += gr.candidates
		nq += len(gr.qs)
	}
	var hits int
	for _, qr := range results {
		hits += len(qr.Hits)
	}
	r.Compute(cost.HitSecPerHit * float64(hits))
	gathered := r.Gather(0, encodeResults(results))
	if id == 0 {
		merged, err := mergeGathered(gathered, len(in.Queries))
		if err != nil {
			return err
		}
		sh.merged = merged
	}
	sh.loadSec[id] = loadSec
	sh.candidates[id] = totalCand
	sh.queries[id] = nq
	return nil
}

// writeCheckpoint serializes the group's recovery state to the stable
// store, charging the write as I/O.
func writeCheckpoint(r *cluster.Rank, store *ckpt.Store, gr *rgroup) {
	cp := ckpt.Group{Group: int32(gr.g), Cursor: int32(gr.cursor), Candidates: gr.candidates}
	cp.Queries = make([]ckpt.Query, len(gr.lists))
	for i, l := range gr.lists {
		cp.Queries[i] = ckpt.Query{Hits: l.Hits()}
	}
	blob := cp.Encode()
	store.Put(int32(gr.g), blob)
	r.SetPhase("checkpoint")
	if r.Tracing() {
		r.Mark("checkpoint", fmt.Sprintf("group %d at step %d (%d bytes)", gr.g, gr.cursor, len(blob)))
	}
	r.Compute(r.Cost().IOSec(len(blob)))
	r.SetPhase("scan")
}

// RunWithRecovery runs a standard engine (see Run) and, on a recoverable
// rank failure, re-runs it from scratch on the surviving rank count. It is
// the checkpoint-free fallback for engines without a resumable transport
// loop (e.g. Algorithm B, whose counting sort has no epoch structure);
// results are identical across rank counts, so a from-scratch re-run on
// p−1 ranks reproduces the failure-free hits exactly.
func RunWithRecovery(algo Algorithm, cfg cluster.Config, in Input, opt Options, faults []*cluster.FaultPlan, maxAttempts int) (*Result, *Recovery, error) {
	p0 := cfg.Ranks
	if maxAttempts <= 0 {
		maxAttempts = p0
	}
	rec := &Recovery{}
	dead := 0
	var failedSec float64
	var atts []*trace.Attempt
	for attempt := 0; ; attempt++ {
		pLive := p0 - dead
		if pLive < 1 {
			return nil, rec, fmt.Errorf("core: all %d ranks failed", p0)
		}
		c := cfg
		c.Ranks = pLive
		c.Fault = nil
		if attempt < len(faults) {
			c.Fault = faults[attempt]
		}
		res, rep, err := runReported(algo, c, in, opt, newIndexCache())
		att := RecoveryAttempt{Ranks: pLive}
		if rep != nil {
			att.Err = rep.Err
			att.FailedRanks = rep.FailedRanks
			att.RunSec = rep.runSec
			if rep.attempt != nil {
				rep.attempt.Label = fmt.Sprintf("attempt %d: %s", attempt, rep.attempt.Label)
				atts = append(atts, rep.attempt)
			}
		}
		rec.Attempts = append(rec.Attempts, att)
		if err == nil {
			res.Metrics.RunSec += failedSec
			if len(atts) > 0 {
				res.Trace = &trace.Trace{Attempts: atts}
			}
			return res, rec, nil
		}
		if rep == nil || !rep.Recoverable() {
			return nil, rec, err
		}
		if attempt+1 >= maxAttempts {
			return nil, rec, fmt.Errorf("core: giving up after %d attempts: %w", attempt+1, err)
		}
		dead += len(rep.FailedRanks)
		failedSec += rep.runSec
	}
}

// reportedRun couples a cluster.RunReport with the attempt's virtual time
// and (when tracing is enabled) its event trace.
type reportedRun struct {
	*cluster.RunReport
	runSec  float64
	attempt *trace.Attempt
}

// runReported is Run returning the machine's RunReport alongside the
// result, so drivers can distinguish recoverable failures. cache is the
// run's host-side memoizer, the caller's so tests can read its counters.
func runReported(algo Algorithm, cfg cluster.Config, in Input, opt Options, cache *indexCache) (*Result, *reportedRun, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	mach, err := cluster.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	sh := newShared(cfg.Ranks, cache)
	body, err := engineBody(algo, cfg, in, opt, sh)
	if err != nil {
		return nil, nil, err
	}
	rep := mach.RunWithReport(body)
	rr := &reportedRun{RunReport: rep, runSec: mach.MaxTime()}
	rr.attempt = mach.Trace(fmt.Sprintf("%s p=%d", algo.String(), cfg.Ranks))
	if rep.Err != nil {
		return nil, rr, rep.Err
	}
	metrics := buildMetrics(algo.String(), mach, sh.loadSec, sh.sortSec, sh.candidates, sh.queries)
	for _, qr := range sh.merged {
		metrics.Hits += int64(len(qr.Hits))
	}
	res := &Result{Queries: sh.merged, Metrics: metrics}
	if rr.attempt != nil {
		res.Trace = &trace.Trace{Attempts: []*trace.Attempt{rr.attempt}}
	}
	return res, rr, nil
}
