// The checkpointed group sweep over a stable partition.
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
// A sweeper is one rank's handle on that structure. Its walk turns a range
// of steps over some groups into (step, group) visits and runs them through
// walkBlocks (algoa.go), the transport every engine shares, without masking.
// Two drivers call it and share everything else:
//
//   - elasticMain is step-major (all owned groups share one cursor), with a
//     membership boundary — checkpoints, then any join or leave — every
//     EpochSteps steps, and one walk per epoch; on a static roster it is the
//     checkpointed crash restart of Algorithm A's schedule;
//   - Backend.ScanBatch walks a bounded quantum of steps for one pepd batch
//     (group id = batch id, so concurrent batches stagger their block order).
//
// Bit-identity with the failure-free static run holds because a top-τ list
// is a pure function of its offer multiset (topk's strict total order breaks
// all ties), a restored group re-offers exactly the post-cursor blocks
// against lists reflecting exactly the pre-cursor blocks, and the
// group→block schedule never depends on the placement.
package core

import (
	"fmt"
	"slices"

	"pepscale/internal/ckpt"
	"pepscale/internal/cluster"
	"pepscale/internal/fasta"
	"pepscale/internal/placement"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
	"pepscale/internal/topk"
	"pepscale/internal/wire"
)

// rgroup is one query group's in-flight state on its driving rank: a group
// of the stable partition under RunElastic, a batch under pepd.
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
	*scanner
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
	// preps are the backend's prepared-fragment tables (nil in RunElastic).
	preps prepTables
}

// newSweeper returns rank r's sweeper over sn, the rank's scanner.
func newSweeper(r *cluster.Rank, sn *scanner, db []byte, opt Options, store *ckpt.Store, noun string, plan *placement.Plan, gen []int32) *sweeper {
	return &sweeper{scanner: sn, r: r, opt: opt, db: db, p0: plan.Blocks,
		ranges: sn.cache.rangesFor(db, plan.Blocks), store: store, noun: noun,
		plan: plan, gen: gen, groups: make(map[int]*rgroup)}
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
	payload := make([]byte, 0, 8*len(mine))
	for _, b := range mine {
		raw := sw.block(b)
		recs, err := sw.cache.recsFor(blockKey(b, len(raw)), raw)
		if err != nil {
			return err
		}
		payload = wire.U64(payload, uint64(len(recs)))
	}
	nrecs := make([]int32, sw.p0)
	for j, buf := range comm.Allgather(payload) {
		cur := wire.NewReader(buf, errWire)
		for _, b := range sw.plan.BlocksOf(comm.GlobalRank(j)) {
			nrecs[b] = int32(cur.U64())
		}
		if err := cur.Finish(); err != nil {
			return fmt.Errorf("rank %d: record counts of rank %d: %w", sw.r.ID(), comm.GlobalRank(j), err)
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
	gr.lists = topk.NewLists(len(gr.qs), sw.opt.Tau)
	blob, ok := sw.store.Get(int32(g))
	if !ok {
		return gr, nil
	}
	r.Compute(cost.IOSec(len(blob)))
	var err error
	if gr.cursor, gr.candidates, err = ckpt.Restore(blob, int32(g), sw.p0, gr.lists); err != nil {
		return nil, fmt.Errorf("rank %d: restore %s %d: %w", r.ID(), sw.noun, g, err)
	}
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

// walk runs groups over steps [from, to) step-major: at step s, each group
// whose cursor has not passed s offers block (g+s) mod p0 — resident, or
// fetched at step s and freed right after the scan — and its cursor advances
// to s+1.
func (sw *sweeper) walk(groups []*rgroup, from, to int) error {
	type visit struct {
		s, b int
		gr   *rgroup
	}
	var visits []visit
	for s := from; s < to; s++ {
		for _, gr := range groups {
			if s >= gr.cursor {
				visits = append(visits, visit{s, (gr.g + s) % sw.p0, gr})
			}
		}
	}
	at := func(i int) (int, int, string) {
		v := visits[i]
		return v.s, sw.plan.BlockRank(v.b), blockWinName(v.b, sw.gen[v.b])
	}
	return sw.walkBlocks(sw.r, len(visits), at, false, nil, func(i int, data []byte) error {
		v := visits[i]
		if data == nil {
			data = sw.block(v.b)
		}
		key, base := blockKey(v.b, len(data)), sw.bases[v.b]
		recs, err := sw.cache.recsFor(key, data)
		if err != nil {
			return fmt.Errorf("rank %d: block %d: %w", sw.r.ID(), v.b, err)
		}
		blk, err := sw.cache.indexFor(key, recs, base, sw.opt.Digest)
		if err != nil {
			return err
		}
		sw.scan.tabs = sw.preps.forBlock(v.b, blk.ix.Len(), sw.opt)
		v.gr.candidates += sw.scanBlock(sw.r, sw.opt, v.gr.qs, v.gr.lists, recs, blk, blockIDResolver(recs, base))
		v.gr.cursor = v.s + 1
		return nil
	})
}

// checkpoint serializes the group's recovery state to the stable store,
// charging the write as I/O: encoded from the live lists into the scanner's
// scratch, sized exactly first, and copied into the group's stored blob.
func (sw *sweeper) checkpoint(gr *rgroup) {
	r, sn := sw.r, sw.scanner
	n := ckpt.HeaderSize
	for _, l := range gr.lists {
		n += l.WireSize()
	}
	blob := ckpt.AppendHeader(slices.Grow(sn.ckpt[:0], n), int32(gr.g), int32(gr.cursor), gr.candidates, len(gr.lists))
	for _, l := range gr.lists {
		sn.hits = l.AppendSorted(sn.hits[:0])
		blob = topk.AppendHits(blob, sn.hits)
	}
	sn.ckpt = blob
	sw.store.Put(int32(gr.g), blob)
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
