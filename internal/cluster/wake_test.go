package cluster_test

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"pepscale/internal/cluster"
)

// TestCollectiveWakesLinear pins the host cost of Algorithm A's step A1 at
// p=1024: every rank exposes its block and enters a barrier. Before any
// failure an exposure cannot change what a rank parked in the barrier does,
// so it must not wake it: at most 2p wake-ups for the whole step, where a
// waiter that woke on every exposure made tens per rank.
func TestCollectiveWakesLinear(t *testing.T) {
	const p = 1024
	m, err := cluster.New(cluster.Config{Ranks: p, Cost: cluster.TwoLevelCluster()})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(func(r *cluster.Rank) error {
		r.Expose("blk", make([]byte, 64))
		r.Barrier()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.CollWakes(); got > 2*p {
		t.Fatalf("%d wake-ups of ranks parked in the barrier, want ≤ %d (2p)", got, 2*p)
	}
}

// TestCrashWhileParkedAtBarrier crashes one rank on entry to a barrier the
// other 63 have already arrived at. The victim's end marks it gone from
// that round, which resolves with its cause: each survivor must come out
// with ErrRankFailed naming the crashed rank, and its clock must be the same
// in two runs.
func TestCrashWhileParkedAtBarrier(t *testing.T) {
	const p, victim = 64, 17
	run := func() []float64 {
		plan := &cluster.FaultPlan{Seed: 3, CrashAtCall: map[int]int{victim: 2}, DetectSec: 0.01}
		m, err := cluster.New(cluster.Config{Ranks: p, Cost: cluster.TwoLevelCluster(), Fault: plan})
		if err != nil {
			t.Fatal(err)
		}
		rep := m.RunWithReport(func(r *cluster.Rank) error {
			r.Expose("blk", make([]byte, 64)) // primitive call 1
			r.Compute(1e-6 * float64(r.ID()%5+1))
			if r.ID() == victim {
				for m.WorldArrivals() < p-1 {
					runtime.Gosched()
				}
			}
			r.Barrier() // call 2: the victim crashes on entry
			r.Barrier()
			return nil
		})
		if !rep.Recoverable() || !reflect.DeepEqual(rep.FailedRanks, []int{victim}) {
			t.Fatalf("report %+v, want a recoverable failure of rank %d", rep, victim)
		}
		clocks := make([]float64, p)
		for i := range clocks {
			if i != victim {
				var rf cluster.ErrRankFailed
				if err := rep.RankErrs[i]; !errors.As(err, &rf) || rf.Rank != victim {
					t.Fatalf("survivor %d: %v, want ErrRankFailed{Rank: %d}", i, err, victim)
				}
			}
			clocks[i] = m.Rank(i).Time()
		}
		return clocks
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("survivor clocks differ across runs")
	}
}
