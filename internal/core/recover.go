// The crash-restart driver.
//
// When a rank fails (cluster.RunReport.Recoverable), recoverLoop re-runs the
// search on the survivors. It drives RunElastic (elastic.go), which replays
// its membership schedule — on a static roster, simply cfg.Ranks members —
// without the dead ranks, each group resuming at its last boundary checkpoint;
// the tests' RunWithRecovery drives it too, restarting a standard engine from
// scratch on the surviving rank count.
package core

import (
	"fmt"

	"pepscale/internal/ckpt"
	"pepscale/internal/cluster"
	"pepscale/internal/trace"
)

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
