// The resilient engine and the crash-restart driver.
//
// RunResilient is the checkpointed group sweep (sweep.go) in its group-major
// nest: on an attempt with p′ ≤ p0 live ranks the round-robin plan puts block
// b on rank b mod p′ and group g on rank g mod p′, each owned group sweeps
// blocks (g+s) mod p0 for s = cursor..p0−1 — at p′ = p0 exactly Algorithm A's
// schedule, prefetch masking included — and checkpoints every
// CheckpointEvery steps.
//
// When a rank fails (cluster.RunReport.Recoverable), recoverLoop re-runs the
// body on the survivors: the lost rank's blocks and groups re-partition
// round-robin among p′−1 ranks, and each group resumes at its checkpointed
// cursor. Resident memory stays O(N/p′): a rank holds its ⌈p0/p′⌉ owned
// blocks plus one transported block plus one block index. The same loop
// drives RunElastic (elastic.go), which replays its membership schedule
// without the dead ranks, and RunWithRecovery, which has no checkpoints and
// restarts a standard engine from scratch.
package core

import (
	"fmt"

	"pepscale/internal/ckpt"
	"pepscale/internal/cluster"
	"pepscale/internal/placement"
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

// attemptPlan is one driver attempt as its engine lays it out on the ranks
// still alive.
type attemptPlan struct {
	// cfg is the attempt's machine (recoverLoop sets its fault schedule).
	cfg cluster.Config
	// ranks is the live rank count recorded in RecoveryAttempt.Ranks.
	ranks int
	// label names the attempt in the trace, after "attempt N: ".
	label string
	sh    *shared
	body  func(*cluster.Rank) error
}

// recoverLoop is the crash-restart driver: it runs attempts until one
// succeeds, a failure is not recoverable, or maxAttempts (default: universe)
// is spent. plan lays out the next attempt given every rank that failed so
// far (in the numbering of the attempt it failed in) and the virtual time the
// failed attempts consumed. The returned metrics describe the successful
// attempt, with RunSec accumulating the failed attempts' virtual time (the
// wall-clock cost of the failures); store, when the engine checkpoints,
// feeds the Recovery's stable-store counters.
func recoverLoop(name string, universe, maxAttempts int, faults []*cluster.FaultPlan, store *ckpt.Store,
	plan func(dead []int, failedSec float64) (*attemptPlan, error)) (*Result, *Recovery, error) {
	if maxAttempts <= 0 {
		maxAttempts = universe
	}
	rec := &Recovery{}
	var dead []int
	var failedSec float64
	var atts []*trace.Attempt
	for attempt := 0; ; attempt++ {
		ap, err := plan(dead, failedSec)
		if err != nil {
			return nil, rec, err
		}
		ap.cfg.Fault = nil
		if attempt < len(faults) {
			ap.cfg.Fault = faults[attempt]
		}
		mach, err := cluster.New(ap.cfg)
		if err != nil {
			return nil, rec, err
		}
		rep := mach.RunWithReport(ap.body)
		rec.Attempts = append(rec.Attempts, RecoveryAttempt{
			Ranks:       ap.ranks,
			Err:         rep.Err,
			FailedRanks: rep.FailedRanks,
			RunSec:      mach.MaxTime(),
		})
		if store != nil {
			rec.CheckpointWrites, rec.CheckpointBytes = store.Writes(), store.Bytes()
		}
		if att := mach.Trace(fmt.Sprintf("attempt %d: %s", attempt, ap.label)); att != nil {
			atts = append(atts, att)
		}
		if rep.OK() {
			// buildResult has summed the hits; only the failed attempts'
			// time is added here.
			res := buildResult(name, mach, ap.sh, atts)
			res.Metrics.RunSec += failedSec
			return res, rec, nil
		}
		if !rep.Recoverable() {
			return nil, rec, rep.Err
		}
		if attempt+1 >= maxAttempts {
			return nil, rec, fmt.Errorf("core: giving up after %d attempts: %w", attempt+1, rep.Err)
		}
		dead = append(dead, rep.FailedRanks...)
		failedSec += mach.MaxTime()
	}
}

// shrunk is cfg on the ranks left after dead failures: the engines that
// renumber survivors 0..p′−1 only need the count.
func shrunk(cfg cluster.Config, dead []int) (cluster.Config, error) {
	p0 := cfg.Ranks
	if cfg.Ranks -= len(dead); cfg.Ranks < 1 {
		return cfg, fmt.Errorf("core: all %d ranks failed", p0)
	}
	return cfg, nil
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
	if err := in.validate(opt); err != nil {
		return nil, nil, err
	}
	p0 := cfg.Ranks
	if p0 < 1 {
		return nil, nil, fmt.Errorf("core: need at least 1 rank, got %d", p0)
	}
	store := ckpt.NewStore()
	return recoverLoop("resilient", p0, ropt.MaxAttempts, ropt.Faults, store, func(dead []int, _ float64) (*attemptPlan, error) {
		c, err := shrunk(cfg, dead)
		if err != nil {
			return nil, err
		}
		sh := newShared(c.Ranks, cache)
		return &attemptPlan{cfg: c, ranks: c.Ranks, label: fmt.Sprintf("resilient p=%d", c.Ranks), sh: sh,
			body: func(r *cluster.Rank) error { return resilientBody(r, in, opt, ropt, p0, store, sh) }}, nil
	})
}

// resilientBody is one attempt's rank program; p0 is the stable logical
// partition width (the initial rank count). Ownership is the placement
// layer's RoundRobin plan over the attempt's ranks 0..p−1 (block b and group
// g on rank b mod p).
func resilientBody(r *cluster.Rank, in Input, opt Options, ropt ResilientOptions, p0 int, store *ckpt.Store, sh *shared) error {
	t0 := r.Time()
	r.SetPhase("load")
	members := make([]int, r.Size())
	for i := range members {
		members[i] = i
	}
	plan, err := placement.RoundRobin(p0, p0, members)
	if err != nil {
		return err
	}
	sw, err := newSweeper(r, in.DBData, opt, sh.cache, store, "group", plan, make([]int32, p0))
	if err != nil {
		return err
	}
	if err := sw.loadOwned(); err != nil {
		return err
	}
	if err := sw.agreeBases(r.World()); err != nil {
		return err
	}
	for _, g := range plan.GroupsOf(r.ID()) {
		if err := sw.loadShare(in.Queries, g); err != nil {
			return err
		}
	}
	r.Barrier() // all windows exposed
	loadSec := r.Time() - t0

	r.SetPhase("scan")
	for _, gr := range sw.sortedGroups() {
		if len(gr.qs) == 0 {
			gr.cursor = p0
			continue
		}
		for s := gr.cursor; s < p0; s++ {
			if err := sw.step(gr, s, opt.Masking); err != nil {
				return err
			}
			if every := ropt.CheckpointEvery; every > 0 && (gr.cursor%every == 0 || gr.cursor == p0) {
				sw.checkpoint(gr)
			}
		}
	}
	return sw.report(r.World(), len(in.Queries), loadSec, sh)
}

// RunWithRecovery runs a standard engine (see Run) and, on a recoverable
// rank failure, re-runs it from scratch on the surviving rank count. It is
// the checkpoint-free fallback for engines without a resumable transport
// loop (e.g. Algorithm B, whose counting sort has no epoch structure);
// results are identical across rank counts, so a from-scratch re-run on
// p−1 ranks reproduces the failure-free hits exactly.
func RunWithRecovery(algo Algorithm, cfg cluster.Config, in Input, opt Options, faults []*cluster.FaultPlan, maxAttempts int) (*Result, *Recovery, error) {
	if err := in.validate(opt); err != nil {
		return nil, nil, err
	}
	return recoverLoop(algo.String(), cfg.Ranks, maxAttempts, faults, nil, func(dead []int, _ float64) (*attemptPlan, error) {
		c, err := shrunk(cfg, dead)
		if err != nil {
			return nil, err
		}
		// A fresh cache per attempt: Algorithm B's block keys are
		// owner-rank-relative and name different bytes at a different p′.
		sh := newShared(c.Ranks, newIndexCache())
		body, err := engineBody(algo, c, in, opt, sh)
		if err != nil {
			return nil, err
		}
		return &attemptPlan{cfg: c, ranks: c.Ranks, label: fmt.Sprintf("%s p=%d", algo, c.Ranks), sh: sh, body: body}, nil
	})
}
