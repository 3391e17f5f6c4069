package core

import (
	"slices"
	"testing"

	"pepscale/internal/chem"
	"pepscale/internal/cluster"
	"pepscale/internal/trace"
)

// Named regressions for the pitfalls of folding the engines onto the one
// transport core (walkBlocks) and the one restart driver. The fingerprint
// tables catch all of them as a changed hash; these say which.

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

// TestQuerylessRanksWalkNothing: with more ranks than queries, a rank whose
// query share is empty has nothing to score, so Algorithm A's cycle (masked,
// unmasked and per sub-group) fetches no block on it, and the hits still
// equal Serial's.
func TestQuerylessRanksWalkNothing(t *testing.T) {
	in := testInput(t, 60, 5)
	ref, err := Serial(in, testOptions(), clusterCfg(1).Cost)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoA, AlgoANoMask, AlgoSubGroup} {
		opt := testOptions()
		opt.Groups = 2
		res, err := Run(algo, clusterCfg(8), in, opt)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		queriesEqual(t, algo.String(), ref.Queries, res.Queries)
		idle := 0
		for i, rm := range res.Metrics.PerRank {
			if rm.Queries != 0 {
				continue
			}
			idle++
			if rm.RMABytesReceived != 0 || rm.Messages != 0 {
				t.Errorf("%s rank %d holds no query but fetched %d RMA bytes in %d messages",
					algo, i, rm.RMABytesReceived, rm.Messages)
			}
		}
		if idle == 0 {
			t.Fatalf("%s: every rank holds a query: nothing was checked", algo)
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
	res, rec, err := RunElastic(clusterCfg(4), in, opt, ElasticOptions{Faults: crash})
	check("elastic", res, rec, err)
	res, rec, err = RunWithRecovery(AlgoB, clusterCfg(4), in, opt, crash, 0)
	check("recovery/b", res, rec, err)
}

// TestCandidateWalkTagsSteps: the candidate engine's band walk is walkBlocks,
// so its transport is tagged by walk step like Algorithm A's instead of all
// at step −1: the get that brings band s+1 in is issued at step s (plus one
// at step 0 when the first band is remote), and nothing runs past the step
// that scans the last band.
func TestCandidateWalkTagsSteps(t *testing.T) {
	in := testInput(t, 60, 12)
	opt := testOptions()
	// Windows this wide cross band edges, so every rank fetches one band
	// or more (one rank walks three).
	opt.Tol = chem.DaltonTolerance(400)
	res, err := Run(AlgoCandidate, tracedCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	att := res.Trace.Attempts[0]
	if len(att.StepStats()) == 0 {
		t.Fatal("candidate run tagged no step")
	}
	fetched := 0
	for rank, evs := range att.Events {
		var gets []int
		last := -1
		for _, ev := range evs {
			last = max(last, ev.Step)
			if ev.Kind == trace.KindGetIssue && ev.Name == candWindow {
				gets = append(gets, ev.Step)
			}
		}
		fetched += len(gets)
		if len(gets) == 0 {
			if last > 0 {
				t.Errorf("rank %d: fetched nothing but reached step %d", rank, last)
			}
			continue
		}
		var want []int
		if len(gets) > 1 && gets[1] == 0 {
			want = append(want, 0) // the first band is remote
		}
		for s := 0; len(want) < len(gets); s++ {
			want = append(want, s)
		}
		if !slices.Equal(gets, want) {
			t.Errorf("rank %d: gets tagged %v, want %v", rank, gets, want)
		}
		if next := want[len(want)-1] + 1; last > next {
			t.Errorf("rank %d: events at step %d, past the last band's step %d", rank, last, next)
		}
	}
	if fetched == 0 {
		t.Fatal("no rank fetched a band: nothing was checked")
	}
}

// TestUnmaskedGetsTaggedWithTheirStep: without masking, Algorithm A fetches
// each block at the step that scans it, so every get carries that step; with
// masking, the get for step s's block is issued during step s−1.
func TestUnmaskedGetsTaggedWithTheirStep(t *testing.T) {
	in := testInput(t, 40, 8)
	const p = 4
	for _, c := range []struct {
		algo Algorithm
		lead int // steps between a get's tag and the step that scans its block
	}{{AlgoANoMask, 0}, {AlgoA, 1}} {
		res, err := Run(c.algo, tracedCfg(p), in, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		for rank, evs := range res.Trace.Attempts[0].Events {
			var scanned []int
			for _, ev := range evs {
				if ev.Kind != trace.KindGetIssue || ev.Name != dbWindow {
					continue
				}
				s := (ev.Peer - rank + p) % p // rank scans block Peer at step s
				if ev.Step != s-c.lead {
					t.Errorf("%s rank %d: get of step %d's block tagged step %d, want %d", c.algo, rank, s, ev.Step, s-c.lead)
				}
				scanned = append(scanned, s)
			}
			if !slices.Equal(scanned, []int{1, 2, 3}) {
				t.Errorf("%s rank %d: fetched the blocks of steps %v, want [1 2 3]", c.algo, rank, scanned)
			}
		}
	}
}

// TestElasticIdleMemberKeepsStepTag: a member that drives no group still
// reaches every epoch boundary, and its boundary events must carry the same
// step tag as everyone else's — elasticMain tags the epoch's last step after
// each walk, not only inside it. Two ranks join a 3-group job at the first
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

// TestRanksShareColdIndex: ranks scanning the same blocks at once, each
// block large enough that its index sorts a mass bucket when a window
// first reaches it, return the serial oracle's hits. Under -race this
// also holds the scan to reading an index only inside its windows: the
// position one past a window may lie in a bucket another rank is sorting.
func TestRanksShareColdIndex(t *testing.T) {
	in := testInput(t, 240, 48)
	ref, err := Serial(in, testOptions(), clusterCfg(1).Cost)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoA, AlgoB} {
		res, err := Run(algo, clusterCfg(4), in, testOptions())
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		queriesEqual(t, algo.String(), ref.Queries, res.Queries)
	}
}
