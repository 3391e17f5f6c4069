// The serving backend: the resident-cluster substrate of the streaming
// search service (internal/serve).
//
// A Backend holds a database partitioned ONCE into p0 record-aligned blocks
// and keeps them resident on a long-lived virtual machine: Boot loads and
// exposes every member's owned blocks (placement.RoundRobin initially, the
// minimal-move incremental plan thereafter), Rotate migrates block windows
// between members at a membership change (generation-versioned names, the
// elastic engine's discipline), and ScanBatch advances one in-flight query
// batch by a bounded number of block steps on its owner rank. All three are
// the checkpointed group sweep of sweep.go, driven one machine Run at a time:
// a batch is a group whose id is the batch id. Between Runs
// the machine idles — windows persist, per-rank clocks accumulate — which is
// what makes the service "always on": every dispatch starts with
// Rank.IdleUntil to the batch's dispatch instant, so service-time gaps are
// explicit intervals on the virtual timeline.
//
// Batch state follows the sweep's recovery shape: after each quantum the
// batch's top-τ lists, cursor, and candidate count are checkpointed
// (internal/ckpt) to the backend's stable store, and after Invalidate — a
// crash, an owner loss, or an owner reassignment — the next owner restores
// the batch from its latest checkpoint: it re-offers exactly the post-cursor
// blocks against lists that reflect exactly the pre-cursor blocks, so a
// membership event never changes a hit.
//
// Bit-identity with an offline batch run holds by the standard argument: a
// top-τ list is a pure function of its offer multiset (topk's strict total
// order breaks all ties), every query sees every block exactly once across
// quanta regardless of batching, owner, or block order, and the global
// protein index bases are a pure function of the p0-way partition.
//
// What every batch shares stays resident instead of being rebuilt per
// quantum: each rank's scanner (scorer and scratch, sweep state, walkBlocks'
// buffers) for the life of the machine, and each block's prepared-fragment
// tables (prepTables) for the life of the backend. Both are host-side: the
// virtual clock charges every quantum's scan as before.
package core

import (
	"fmt"
	"slices"

	"pepscale/internal/ckpt"
	"pepscale/internal/cluster"
	"pepscale/internal/placement"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
)

// Backend is the serving layer's resident-cluster engine. All methods are
// host-side drivers (call them from one goroutine, between machine Runs);
// the rank programs they launch follow the per-rank ownership discipline of
// the batch engines.
type Backend struct {
	opt   Options
	db    []byte
	p0    int
	bases []int32
	cache *indexCache
	store *ckpt.Store
	plan  *placement.Plan
	scr   placement.Scratch
	gen   []int32
	// migBytes[r] counts block-migration bytes fetched by rank r across
	// all rotations (each rank writes only its own slot during a Run).
	migBytes []int64
	// scanners[r] is rank r's resident scanner, created by its first Run
	// after a Boot (each rank writes only its own slot during a Run).
	scanners []*scanner
	preps    prepTables
}

// prepTables are a backend's prepared-fragment tables: preps[b][c−1] holds
// block b's candidates at effective fragment-charge cap c, created when a
// batch first scans the block. A batch engine scans a candidate 1.01–1.29
// times per run, so only the backend, whose blocks every batch rescans,
// keeps them (nil elsewhere).
//
// Single writer: the backend drives one ScanBatch Run at a time and only
// the batch's owner rank runs in it, so at most one sweep reads or writes
// the tables at any instant, and consecutive Runs are ordered by the
// machine's join.
type prepTables [][]*score.PrepTable

// forBlock returns block b's tables (nil for nil pt), creating them for an
// index of entries positions on first use.
func (pt prepTables) forBlock(b, entries int, opt Options) []*score.PrepTable {
	if pt == nil {
		return nil
	}
	if pt[b] == nil {
		pt[b] = make([]*score.PrepTable, max(1, opt.Score.Theoretical.MaxFragmentCharge))
		for c := range pt[b] {
			pt[b][c] = score.NewPrepTable(entries)
		}
	}
	return pt[b]
}

// NewBackend partitions the database into blocks record-aligned pieces and
// precomputes the partition-independent global protein-index bases. The
// returned backend has no placement yet: call Boot before the first scan.
func NewBackend(db []byte, opt Options, blocks int) (*Backend, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if blocks < 1 {
		return nil, fmt.Errorf("core: backend needs at least 1 block, got %d", blocks)
	}
	bk := &Backend{
		opt:   opt,
		db:    db,
		p0:    blocks,
		cache: newIndexCache(),
		store: ckpt.NewStore(),
		gen:   make([]int32, blocks),
		bases: make([]int32, blocks),
		preps: make(prepTables, blocks),
	}
	var acc int32
	for b, rg := range bk.cache.rangesFor(db, blocks) {
		recs, err := bk.cache.recsFor(blockKey(b, rg.End-rg.Start), db[rg.Start:rg.End])
		if err != nil {
			return nil, fmt.Errorf("core: backend block %d: %w", b, err)
		}
		bk.bases[b] = acc
		acc += int32(len(recs))
	}
	return bk, nil
}

// Blocks returns p0, the stable partition width.
func (bk *Backend) Blocks() int { return bk.p0 }

// Members returns the current placement's member list (nil before Boot).
func (bk *Backend) Members() []int {
	if bk.plan == nil {
		return nil
	}
	return append([]int(nil), bk.plan.Members...)
}

// CheckpointWrites and CheckpointBytes report the stable-store traffic of
// all batch checkpoints so far.
func (bk *Backend) CheckpointWrites() int64 { return bk.store.Writes() }

// CheckpointBytes is the companion byte counter of CheckpointWrites.
func (bk *Backend) CheckpointBytes() int64 { return bk.store.Bytes() }

// CheckpointsHeld returns the number of batches with a stored checkpoint.
func (bk *Backend) CheckpointsHeld() int { return bk.store.Len() }

// MigrationBytes returns the total block bytes moved by rotations.
func (bk *Backend) MigrationBytes() int64 {
	var total int64
	for _, b := range bk.migBytes {
		total += b
	}
	return total
}

// sweeper is rank r's handle on the backend's partition, placement, window
// generations, store and tables for the duration of one machine Run, over
// the rank's resident scanner.
func (bk *Backend) sweeper(r *cluster.Rank) (*sweeper, error) {
	sn := bk.scanners[r.ID()]
	if sn == nil {
		var err error
		if sn, err = newScanner(bk.opt, bk.cache); err != nil {
			return nil, err
		}
		bk.scanners[r.ID()] = sn
	}
	sw := newSweeper(r, sn, bk.db, bk.opt, bk.store, "batch", bk.plan, bk.gen)
	sw.bases, sw.preps = bk.bases, bk.preps
	return sw, nil
}

// Boot (re)loads every member's owned blocks onto mach and exposes them
// under the current window generations. It is called once at service start
// and again after every machine loss (the replacement machine has no
// windows). On the first call the placement is the round-robin plan over
// members; later calls with a different member set advance it minimally.
func (bk *Backend) Boot(mach *cluster.Machine, members []int) (*cluster.RunReport, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("core: backend boot with no members")
	}
	if bk.plan == nil {
		plan, err := placement.RoundRobin(bk.p0, bk.p0, members)
		if err != nil {
			return nil, err
		}
		bk.plan = plan
	} else if !slices.Equal(bk.plan.Members, members) {
		next, err := bk.scr.Next(bk.plan, members)
		if err != nil {
			return nil, err
		}
		bk.plan = next
	}
	if bk.migBytes == nil {
		bk.migBytes = make([]int64, mach.Ranks())
	}
	// A new machine starts with no resident scan state: none survives a
	// crash, and no binding outlives the machine its batches ran on.
	bk.scanners = make([]*scanner, mach.Ranks())
	rep := mach.RunWithReport(func(r *cluster.Rank) error {
		if len(bk.plan.BlocksOf(r.ID())) == 0 {
			return nil
		}
		sw, err := bk.sweeper(r)
		if err != nil {
			return err
		}
		r.SetPhase("load")
		return sw.loadOwned()
	})
	return rep, nil
}

// Rotate moves the placement to newMembers on the LIVE machine: each
// migrating block's new owner fetches the raw window from the old owner
// (topology-aware RMA, counted as migration bytes) and re-exposes it under
// a bumped generation name. Group migrations in the plan are ignored — the
// serving layer owns batch-to-rank assignment itself. A no-op membership
// returns (nil, nil, nil).
func (bk *Backend) Rotate(mach *cluster.Machine, newMembers []int) (*cluster.RunReport, []placement.Migration, error) {
	if bk.plan == nil {
		return nil, nil, fmt.Errorf("core: backend rotate before boot")
	}
	if slices.Equal(bk.plan.Members, newMembers) {
		return nil, nil, nil
	}
	next, err := bk.scr.Next(bk.plan, newMembers)
	if err != nil {
		return nil, nil, err
	}
	migs, err := placement.Rebalance(bk.plan, next)
	if err != nil {
		return nil, nil, err
	}
	// Each block migration's source window is named with the generation
	// before the bump.
	oldNames := make([]string, len(migs))
	for i, mg := range migs {
		if mg.Kind == placement.MigrateBlock {
			oldNames[i] = blockWinName(mg.ID, bk.gen[mg.ID])
			bk.gen[mg.ID]++
		}
	}
	bk.plan = next
	rep := mach.RunWithReport(func(r *cluster.Rank) error {
		id := r.ID()
		sw, err := bk.sweeper(r)
		if err != nil {
			return err
		}
		for i, mg := range migs {
			if mg.Kind != placement.MigrateBlock || (id != mg.To && id != mg.From) {
				continue
			}
			r.SetPhase("migrate")
			if id == mg.From {
				r.NoteFree(int64(len(sw.block(mg.ID))))
				continue
			}
			n, err := sw.fetchMigrated(mg.ID, mg.From, oldNames[i])
			if err != nil {
				return err
			}
			bk.migBytes[id] += n
		}
		return nil
	})
	return rep, migs, nil
}

// BatchState is one in-flight query batch: the streaming layer's unit of
// scheduling and the checkpoint store's unit of recovery. The host owns it
// between Runs; during a ScanBatch Run only the owner rank touches it.
type BatchState struct {
	id    int32
	owner int
	specs []*spectrum.Spectrum
	// gr is the batch's machine-bound scan state: nil until its owner's
	// first quantum loads it, and again after Invalidate.
	gr *rgroup

	done      bool
	doneClock float64
	results   []QueryResult
}

// NewBatch wraps a closed batch of query spectra for dispatch as batch id.
func NewBatch(id int32, specs []*spectrum.Spectrum) *BatchState {
	return &BatchState{id: id, specs: specs}
}

// ID returns the batch identifier (the checkpoint-store key).
func (bs *BatchState) ID() int32 { return bs.id }

// Owner returns the rank currently assigned to drive the batch.
func (bs *BatchState) Owner() int { return bs.owner }

// SetOwner assigns the driving rank (host-side, between Runs).
func (bs *BatchState) SetOwner(owner int) { bs.owner = owner }

// Size returns the batch's query count.
func (bs *BatchState) Size() int { return len(bs.specs) }

// Cursor returns the next block step to scan (p0 when the sweep is done; 0
// while the batch holds no machine-bound state).
func (bs *BatchState) Cursor() int {
	if bs.gr == nil {
		return 0
	}
	return bs.gr.cursor
}

// Candidates returns the candidates scored so far (0 while the batch holds
// no machine-bound state).
func (bs *BatchState) Candidates() int64 {
	if bs.gr == nil {
		return 0
	}
	return bs.gr.candidates
}

// Done reports whether the batch has swept all blocks and finalized.
func (bs *BatchState) Done() bool { return bs.done }

// DoneClock returns the owner's machine-local clock at completion.
func (bs *BatchState) DoneClock() float64 { return bs.doneClock }

// Results returns the finalized per-query top-τ results (Index is the
// query's position within the batch).
func (bs *BatchState) Results() []QueryResult { return bs.results }

// Invalidate drops the batch's machine-bound state. Call after a machine
// loss or before reassigning the batch to a new owner — the next owner's
// first quantum rebuilds the lists from the stable store's latest checkpoint
// (none: the batch rescans from block 0), so no block is ever offered
// twice. Reading the store then rather than staging a copy
// of the blob now is equivalent: batch ids are unique, and a batch is never
// scanned — hence never checkpointed — between Invalidate and that quantum.
// The owner's resident scanner drops its query bindings too.
func (bk *Backend) Invalidate(bs *BatchState) {
	bs.gr = nil
	if bs.owner < len(bk.scanners) && bk.scanners[bs.owner] != nil {
		bk.scanners[bs.owner].scan.unbind()
	}
}

// ScanBatch advances bs by at most steps block scans on its owner rank,
// starting no earlier than the absolute machine-local time dispatchAt. The
// quantum checkpoints the batch on exit; a completed sweep finalizes the
// per-query results, stamps DoneClock and deletes the checkpoint (a done
// batch is never restored). The quantum runs on the owner's
// resident scanner, whose query bindings it resets first.
func (bk *Backend) ScanBatch(mach *cluster.Machine, bs *BatchState, dispatchAt float64, steps int) (*cluster.RunReport, error) {
	if bk.plan == nil {
		return nil, fmt.Errorf("core: backend scan before boot")
	}
	if steps < 1 {
		steps = bk.p0
	}
	rep := mach.RunWithReport(func(r *cluster.Rank) error {
		if r.ID() != bs.owner {
			return nil
		}
		r.IdleUntil(dispatchAt)
		sw, err := bk.sweeper(r)
		if err != nil {
			return err
		}
		if bs.gr == nil {
			r.SetPhase("ingest")
			if bs.gr, err = sw.loadGroup(int(bs.id), 0, bs.specs); err != nil {
				return err
			}
		}
		gr := bs.gr
		sw.scan.unbind()
		r.SetPhase("scan")
		// The group id is the batch id, so the block order (id+s) mod p0 is
		// staggered across concurrent batches and their remote fetches
		// spread across owners; hits are order-independent (the offer
		// multiset is what matters).
		if err := sw.walk([]*rgroup{gr}, gr.cursor, min(gr.cursor+steps, bk.p0)); err != nil {
			return err
		}
		r.SetStep(-1)
		sw.checkpoint(gr)
		if gr.cursor == bk.p0 {
			r.SetPhase("report")
			bs.results = finalizeResults(queryIndices(gr.qlo, gr.qhi), gr.qs, gr.lists)
			chargeHits(r, bs.results)
			r.NoteFree(int64(queryBytes(bs.specs)))
			bs.done = true
			bs.doneClock = r.Time()
			sw.store.Delete(bs.id)
		}
		return nil
	})
	return rep, nil
}
