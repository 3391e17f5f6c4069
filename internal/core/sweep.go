// The checkpointed group sweep: the second of the two transport cores.
//
// The job is partitioned ONCE into p0 record-aligned database blocks and p0
// query groups — a stable logical structure, independent of which ranks are
// alive. A placement.Plan maps blocks and groups onto the current ranks, and
// group g offers block (g+s) mod p0 at step s, which under the round-robin
// plan on p0 ranks is exactly Algorithm A's schedule. A group's recovery
// state — top-τ lists, step cursor, candidate counter — is serialized
// (internal/ckpt) to a host-side stable store, the write charged as I/O, and
// whichever rank drives the group next restores it from there.
//
// A sweeper is one rank's handle on that structure. Three drivers nest its
// step differently and share everything else:
//
//   - resilientBody is group-major (each owned group sweeps all its remaining
//     steps, checkpointing every CheckpointEvery) and prefetches the next
//     block when Options.Masking is on;
//   - elasticMain is step-major (all owned groups share one cursor), with a
//     membership boundary between steps, and never prefetches;
//   - Backend.ScanBatch runs a bounded quantum of steps for one pepd batch
//     (group id = batch id, so concurrent batches stagger their block order),
//     and never prefetches.
//
// It is deliberately not merged with walkBlocks (algoa.go): the walk holds
// the scanned and the arriving block together and frees after the arrival,
// as the paper's space bound is stated, while the sweep frees a transported
// block as soon as it is scanned; and a walk visits one rank's fixed query
// set, while a sweep step belongs to one of several groups. Sharing code
// would mean branching on the caller or moving virtual time.
//
// Bit-identity with the failure-free static run holds because a top-τ list
// is a pure function of its offer multiset (topk's strict total order breaks
// all ties), a restored group re-offers exactly the post-cursor blocks
// against lists reflecting exactly the pre-cursor blocks, and the
// group→block schedule never depends on the placement.
package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"pepscale/internal/ckpt"
	"pepscale/internal/cluster"
	"pepscale/internal/fasta"
	"pepscale/internal/placement"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
)

// rgroup is one query group's in-flight state on its driving rank: a group
// of the stable partition under RunResilient/RunElastic, a batch under pepd.
//
//pepvet:perrank
type rgroup struct {
	g int
	// qlo, qhi is the group's range in the result index space.
	qlo, qhi   int
	qs         []*score.Query
	lists      []*topk.List
	cursor     int
	candidates int64
}

// sweeper is one rank's view of the sweep: the stable partition, the current
// placement and window generations, the stable store, and the rank's scan
// state. plan, gen and bases are recomputed deterministically by every rank
// (or handed over once at admission), so ranks agree on them without
// exchanging coordination state.
//
//pepvet:perrank
type sweeper struct {
	scanner
	r      *cluster.Rank
	opt    Options
	db     []byte
	p0     int
	ranges []fasta.Range
	store  *ckpt.Store
	// noun is what a group is called in restore/checkpoint marks and errors
	// ("group", or "batch" under pepd). The marks are trace bytes.
	noun string

	plan *placement.Plan
	// gen[b] is block b's migration generation (see blockWinName).
	gen []int32
	// bases[b] is the global protein index of block b's first record.
	bases  []int32
	groups map[int]*rgroup
	// pending is the prefetch issued by the previous step for the block of
	// the step that follows it in the same group; nil otherwise.
	pending *cluster.Pending
	// dcomp and drecv are the host's two transport buffers: the block being
	// scanned and the one the next get lands in, swapped on every arrival.
	dcomp, drecv []byte
}

func newSweeper(r *cluster.Rank, db []byte, opt Options, cache *indexCache, store *ckpt.Store, noun string, plan *placement.Plan, gen []int32) (*sweeper, error) {
	sc, err := score.New(opt.ScorerName, opt.Score)
	if err != nil {
		return nil, err
	}
	return &sweeper{scanner: scanner{sc: sc, cache: cache}, r: r, opt: opt, db: db, p0: plan.Blocks,
		ranges: cache.rangesFor(db, plan.Blocks), store: store, noun: noun,
		plan: plan, gen: gen, groups: make(map[int]*rgroup)}, nil
}

// blockWinName names database block b's RMA window at migration generation
// gen: every migration re-exposes under a bumped generation (windows are
// immutable and outlive rank bodies, so a rank re-acquiring a block within
// one machine lifetime needs a fresh key).
func blockWinName(b int, gen int32) string {
	if gen == 0 {
		return fmt.Sprintf("db%d", b)
	}
	return fmt.Sprintf("db%d.g%d", b, gen)
}

// block returns block b as its owner holds it. A block's image is a pure
// function of its index — a migrated copy equals the slice of the database
// file it was first loaded from — so owned blocks need no per-rank table.
func (sw *sweeper) block(b int) []byte {
	return sw.db[sw.ranges[b].Start:sw.ranges[b].End]
}

// loadOwned loads and exposes this rank's blocks of the plan under their
// current window generations.
func (sw *sweeper) loadOwned() error {
	r := sw.r
	for _, b := range sw.plan.BlocksOf(r.ID()) {
		raw := sw.block(b)
		r.Compute(r.Cost().IOSec(len(raw)))
		r.NoteAlloc(int64(len(raw)))
		if _, err := sw.cache.recsFor(blockKey(b, len(raw)), raw); err != nil {
			return fmt.Errorf("rank %d: load block %d: %w", r.ID(), b, err)
		}
		r.Expose(blockWinName(b, sw.gen[b]), raw)
	}
	return nil
}

// agreeBases fixes the global protein-index bases: each member of comm (the
// plan's membership) contributes its owned blocks' record counts in
// ascending block order.
func (sw *sweeper) agreeBases(comm *cluster.Comm) error {
	mine := sw.plan.BlocksOf(sw.r.ID())
	payload := make([]byte, 8*len(mine))
	for i, b := range mine {
		raw := sw.block(b)
		recs, err := sw.cache.recsFor(blockKey(b, len(raw)), raw)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(payload[8*i:], uint64(len(recs)))
	}
	nrecs := make([]int32, sw.p0)
	for j, buf := range comm.Allgather(payload) {
		for k, b := range sw.plan.BlocksOf(comm.GlobalRank(j)) {
			nrecs[b] = int32(binary.LittleEndian.Uint64(buf[8*k:]))
		}
	}
	sw.bases = make([]int32, sw.p0)
	var acc int32
	for b, n := range nrecs {
		sw.bases[b] = acc
		acc += n
	}
	return nil
}

// loadGroup conditions group g's queries (charged as I/O plus prep) and
// restores its lists, cursor and counter from the stable store when a
// checkpoint exists.
func (sw *sweeper) loadGroup(g, qlo int, specs []*spectrum.Spectrum) (*rgroup, error) {
	r, cost := sw.r, sw.r.Cost()
	qbytes := queryBytes(specs)
	r.Compute(cost.IOSec(qbytes))
	r.NoteAlloc(int64(qbytes))
	gr := &rgroup{g: g, qlo: qlo, qhi: qlo + len(specs), qs: prepareQueries(r, specs, sw.opt.Score)}
	gr.lists = make([]*topk.List, len(gr.qs))
	for i := range gr.lists {
		gr.lists[i] = topk.New(sw.opt.Tau)
	}
	blob, ok := sw.store.Get(int32(g))
	if !ok {
		return gr, nil
	}
	r.Compute(cost.IOSec(len(blob)))
	cp, err := ckpt.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("rank %d: restore %s %d: %w", r.ID(), sw.noun, g, err)
	}
	if int(cp.Group) != g || len(cp.Queries) != len(gr.qs) || int(cp.Cursor) > sw.p0 {
		return nil, fmt.Errorf("rank %d: restore %s %d: checkpoint shape mismatch", r.ID(), sw.noun, g)
	}
	for i := range cp.Queries {
		for _, h := range cp.Queries[i].Hits {
			gr.lists[i].Offer(h)
		}
	}
	gr.cursor = int(cp.Cursor)
	gr.candidates = cp.Candidates
	if r.Tracing() {
		r.Mark("restore", fmt.Sprintf("%s %d resumes at step %d", sw.noun, g, gr.cursor))
	}
	return gr, nil
}

// loadShare loads group g of the stable p0-way partition of queries into
// this rank's group table.
func (sw *sweeper) loadShare(queries []*spectrum.Spectrum, g int) error {
	qlo, qhi := share(len(queries), sw.p0, g)
	gr, err := sw.loadGroup(g, qlo, queries[qlo:qhi])
	if err != nil {
		return err
	}
	sw.groups[g] = gr
	return nil
}

// sortedGroups returns the rank's groups in ascending id order — the
// deterministic order of every per-rank group walk.
func (sw *sweeper) sortedGroups() []*rgroup {
	out := make([]*rgroup, 0, len(sw.groups))
	//pepvet:allow determinism the groups are sorted by id immediately below; no iteration order escapes
	for _, gr := range sw.groups {
		out = append(out, gr)
	}
	slices.SortFunc(out, func(a, b *rgroup) int { return a.g - b.g })
	return out
}

// step is the sweep's one transport step: group gr offers block (g+s) mod
// p0 — resident, or fetched with a one-sided get and freed right after the
// scan — and its cursor advances to s+1. With prefetch, the get for step
// s+1's block is issued before the scan; the caller's next call must then be
// step(gr, s+1, …).
func (sw *sweeper) step(gr *rgroup, s int, prefetch bool) error {
	r, id := sw.r, sw.r.ID()
	r.SetStep(s)
	b := (gr.g + s) % sw.p0
	data := sw.block(b)
	var alloc int64
	if owner := sw.plan.BlockRank(b); owner != id {
		pending := sw.pending
		sw.pending = nil
		if pending == nil {
			pending = r.Get(owner, blockWinName(b, sw.gen[b]))
		}
		var err error
		if data, err = pending.WaitInto(sw.drecv); err != nil {
			return err
		}
		sw.drecv, sw.dcomp = sw.dcomp, data
		alloc = int64(len(data))
		r.NoteAlloc(alloc)
	}
	key := blockKey(b, len(data))
	recs, err := sw.cache.recsFor(key, data)
	if err != nil {
		return fmt.Errorf("rank %d: block %d: %w", id, b, err)
	}
	if prefetch && s+1 < sw.p0 {
		nb := (gr.g + s + 1) % sw.p0
		if owner := sw.plan.BlockRank(nb); owner != id {
			sw.pending = r.Get(owner, blockWinName(nb, sw.gen[nb]))
		}
	}
	c, err := sw.processBlock(r, sw.opt, gr.qs, gr.lists, recs, sw.bases[b], key)
	if err != nil {
		return err
	}
	gr.candidates += c
	if alloc > 0 {
		r.NoteFree(alloc)
	}
	gr.cursor = s + 1
	return nil
}

// checkpoint serializes the group's recovery state to the stable store,
// charging the write as I/O.
func (sw *sweeper) checkpoint(gr *rgroup) {
	r := sw.r
	cp := ckpt.Group{Group: int32(gr.g), Cursor: int32(gr.cursor), Candidates: gr.candidates}
	cp.Queries = make([]ckpt.Query, len(gr.lists))
	for i, l := range gr.lists {
		cp.Queries[i] = ckpt.Query{Hits: l.Hits()}
	}
	blob := cp.Encode()
	sw.store.Put(cp.Group, blob)
	r.SetPhase("checkpoint")
	if r.Tracing() {
		r.Mark("checkpoint", fmt.Sprintf("%s %d at step %d (%d bytes)", sw.noun, gr.g, gr.cursor, len(blob)))
	}
	r.Compute(r.Cost().IOSec(len(blob)))
	r.SetPhase("scan")
}

// report finalizes every owned group, gathers the results at comm's first
// member (which merges them into the shared area) and records this rank's
// counters. total is the job's query count.
func (sw *sweeper) report(comm *cluster.Comm, total int, loadSec float64, sh *shared) error {
	r, id := sw.r, sw.r.ID()
	r.SetStep(-1)
	r.SetPhase("report")
	var results []QueryResult
	var candidates int64
	var queries int
	for _, gr := range sw.sortedGroups() {
		results = append(results, finalizeResults(queryIndices(gr.qlo, gr.qhi), gr.qs, gr.lists)...)
		candidates += gr.candidates
		queries += len(gr.qs)
	}
	sh.loadSec[id], sh.candidates[id], sh.queries[id] = loadSec, candidates, queries
	return gatherResults(r, comm, results, total, sh)
}

// fetchMigrated acquires block b from its previous owner at a placement
// change — a one-sided get of the window named oldName, which the caller
// derived from the generation BEFORE bumping gen[b] — and re-exposes it under
// the bumped generation. It returns the migrated byte count.
func (sw *sweeper) fetchMigrated(b, from int, oldName string) (int64, error) {
	r := sw.r
	data, err := r.Get(from, oldName).Wait()
	if err != nil {
		return 0, err
	}
	r.NoteAlloc(int64(len(data)))
	if _, err := sw.cache.recsFor(blockKey(b, len(data)), data); err != nil {
		return 0, fmt.Errorf("rank %d: migrate block %d: %w", r.ID(), b, err)
	}
	r.Expose(blockWinName(b, sw.gen[b]), data)
	return int64(len(data)), nil
}
