package core

import (
	"testing"

	"pepscale/internal/cluster"
	"pepscale/internal/trace"
)

// Named regressions for the pitfalls of folding the engines onto the two
// transport cores (walkBlocks, sweeper) and the one restart driver. The
// fingerprint tables catch all of them as a changed hash; these say which.

// collectiveOrder returns the names of rank 0's collective events in order.
func collectiveOrder(att *trace.Attempt) []string {
	var names []string
	for _, ev := range att.Events[0] {
		if ev.Kind == trace.KindCollective {
			names = append(names, ev.Name)
		}
	}
	return names
}

// TestSubGroupOneGroupStillSplits: Split is a charged collective. SubGroup
// performs it even with Groups: 1, after loadPhase's Allgather and before the
// exposure barrier; Algorithm A — the same cycle on the world communicator —
// never does. cycleBody must be told, not infer it from groups == 1.
func TestSubGroupOneGroupStillSplits(t *testing.T) {
	in := testInput(t, 40, 6)
	opt := testOptions()
	opt.Groups = 1
	sub, err := Run(AlgoSubGroup, tracedCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := collectiveOrder(sub.Trace.Attempts[0])
	want := []string{"allgather", "split", "barrier", "gather"}
	if len(got) != len(want) {
		t.Fatalf("subgroup g=1 collectives %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("subgroup g=1 collectives %v, want %v", got, want)
		}
	}
	a, err := Run(AlgoA, tracedCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range collectiveOrder(a.Trace.Attempts[0]) {
		if name == "split" {
			t.Error("Algorithm A performed a Split")
		}
	}
}

// TestRecoveryDriversCountHitsOnce: buildResult sums Metrics.Hits; the
// shared restart driver must not add the merged hits a second time.
func TestRecoveryDriversCountHitsOnce(t *testing.T) {
	in := testInput(t, 50, 8)
	opt := testOptions()
	crash := []*cluster.FaultPlan{{CrashAtCall: map[int]int{1: 9}}}
	check := func(name string, res *Result, rec *Recovery, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rec.Attempts) != 2 {
			t.Errorf("%s: %d attempts, want 2", name, len(rec.Attempts))
		}
		var hits int64
		for _, qr := range res.Queries {
			hits += int64(len(qr.Hits))
		}
		if hits == 0 || res.Metrics.Hits != hits {
			t.Errorf("%s: Metrics.Hits = %d, the results hold %d", name, res.Metrics.Hits, hits)
		}
	}
	res, rec, err := RunResilient(clusterCfg(4), in, opt, ResilientOptions{CheckpointEvery: 1, Faults: crash})
	check("resilient", res, rec, err)
	res, rec, err = RunElastic(clusterCfg(4), in, opt, ElasticOptions{Faults: crash})
	check("elastic", res, rec, err)
	res, rec, err = RunWithRecovery(AlgoB, clusterCfg(4), in, opt, crash, 0)
	check("recovery/b", res, rec, err)
}

// TestElasticIdleMemberKeepsStepTag: a member that drives no group still
// reaches every epoch boundary, and its boundary events must carry the same
// step tag as everyone else's — elasticMain tags the step once per step, not
// only inside sweeper.step. Two ranks join a 3-group job at the first
// boundary; minimal-move placement gives them nothing to drive.
func TestElasticIdleMemberKeepsStepTag(t *testing.T) {
	in := testInput(t, 60, 9)
	cfg := elasticCfg()
	cfg.Ranks = 3
	cfg.Trace = true
	mp := &cluster.MembershipPlan{Universe: 5, Initial: 3,
		Events: []cluster.MemberEvent{{TimeSec: 1e-9, Join: []int{3, 4}}}}
	res, _, err := RunElastic(cfg, in, testOptions(), ElasticOptions{Membership: mp})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.PerRank[3].Queries != 0 || res.Metrics.PerRank[4].Queries != 0 {
		t.Fatalf("joiners drive groups (%d, %d queries): the scenario needs idle members",
			res.Metrics.PerRank[3].Queries, res.Metrics.PerRank[4].Queries)
	}
	type round struct {
		ph  string
		seq int64
	}
	steps := map[round]int{}
	agreed := 0
	for rank, evs := range res.Trace.Attempts[0].Events {
		for _, ev := range evs {
			if ev.Kind != trace.KindCollective || ev.Name != "allreduce-float64" {
				continue
			}
			k := round{ev.PhID, ev.Seq}
			if first, ok := steps[k]; !ok {
				steps[k] = ev.Step
			} else if first != ev.Step {
				t.Errorf("rank %d: boundary %v tagged step %d, another member tagged it %d", rank, k, ev.Step, first)
			}
			if rank >= 3 {
				agreed++
			}
		}
	}
	if agreed == 0 {
		t.Fatal("the joiners never reached a boundary: nothing was checked")
	}
}
