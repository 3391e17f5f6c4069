package core

import (
	"errors"
	"testing"

	"pepscale/internal/cluster"
)

// TestAlgoAScale4096 is the issue's headline acceptance test: Algorithm A
// on a 4096-rank virtual machine under the two-level topology, clean and
// with a mid-scan crash. Correctness is pinned against the serial
// reference; feasibility (host time and memory) rests on the O(p) machine
// internals and the host-side per-run memoization.
func TestAlgoAScale4096(t *testing.T) {
	const p = 4096
	in := testInput(t, 512, 48)
	opt := testOptions()

	ref, err := Serial(in, opt, cluster.TwoLevelCluster())
	if err != nil {
		t.Fatalf("Serial: %v", err)
	}

	cfg := cluster.Config{Ranks: p, Cost: cluster.TwoLevelCluster()}
	res, err := Run(AlgoA, cfg, in, opt)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	queriesEqual(t, "algoA@4096", ref.Queries, res.Queries)
	if res.Metrics.Candidates == 0 {
		t.Fatal("no candidates at p=4096")
	}
	if res.Metrics.RunSec <= 0 {
		t.Fatalf("non-positive virtual makespan %v", res.Metrics.RunSec)
	}
	if len(res.Metrics.PerRank) != p {
		t.Fatalf("PerRank has %d entries, want %d", len(res.Metrics.PerRank), p)
	}

	// One injected crash: the run must fail recoverably (a rank failure, not
	// a hang or a fatal machine error) and still return promptly with 4095
	// survivors unwinding from the primitives that wait on it. With 48 queries
	// over 4096 ranks, rank 85 holds one query and walks the blocks, so its
	// 9th primitive call is mid-scan; rank 100 holds none and walks nothing,
	// so it is crashed at its 1st, the load's Allgather.
	for _, c := range []struct{ rank, call int }{{85, 9}, {100, 1}} {
		cfg.Fault = &cluster.FaultPlan{Seed: 7, CrashAtCall: map[int]int{c.rank: c.call}, DetectSec: 0.01}
		_, err = Run(AlgoA, cfg, in, opt)
		if err == nil {
			t.Fatalf("crash of rank %d at call %d produced no failure", c.rank, c.call)
		}
		var rf cluster.ErrRankFailed
		if !errors.As(err, &rf) {
			t.Fatalf("crash surfaced as %T (%v), want ErrRankFailed", err, err)
		}
		if rf.Rank != c.rank {
			t.Fatalf("failed rank %d, want %d", rf.Rank, c.rank)
		}
	}
}
