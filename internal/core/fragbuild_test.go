package core

import (
	"testing"

	"pepscale/internal/cluster"
	"pepscale/internal/digest"
	"pepscale/internal/fragidx"
	"pepscale/internal/score"
	"pepscale/internal/spectrum"
)

// blocksOfKind returns the block indexes a finished run left in its cache
// under one kind.
func (c *indexCache) blocksOfKind(kind cacheKind) []*blockIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*blockIndex
	add := func(e *cacheEntry) {
		if e == nil {
			return
		}
		if b, ok := e.v.(*blockIndex); ok {
			out = append(out, b)
		}
	}
	if t := c.dense[kind].Load(); t != nil {
		for i := range *t {
			add((*t)[i].Load())
		}
	}
	for key, e := range c.m {
		if key.kind == kind {
			add(e)
		}
	}
	return out
}

// tierKey names one fragment-index tier of a block.
type tierKey struct {
	maxZ int
	kind fragidx.Kind
}

// demandedTiers is the oracle of the build-count test: the distinct tiers a
// fragment-index scan of the whole query set asks of one block, derived from
// the queries alone — a query with candidates in the block needs the walk
// tier at its fragment-charge cap, plus the charge-1 match tier when the
// prefilter is on.
func demandedTiers(t *testing.T, ix *digest.Index, in Input, opt Options) map[tierKey]bool {
	t.Helper()
	sc, err := score.New(opt.ScorerName, opt.Score)
	if err != nil {
		t.Fatal(err)
	}
	walk := fragidx.KindMatch
	if sc.FragWalk() == score.FragWalkPasses {
		walk = fragidx.KindPasses
	}
	want := map[tierKey]bool{}
	for _, q := range prepareQueries(nil, in.Queries, opt.Score) {
		lo, hi := opt.Tol.Window(q.ParentMass)
		if start, end := ix.Window(lo, hi); end <= start {
			continue
		}
		want[tierKey{spectrum.EffectiveMaxFragmentCharge(opt.Score.Theoretical, q.Charge), walk}] = true
		if opt.Prefilter > 0 {
			want[tierKey{1, fragidx.KindMatch}] = true
		}
	}
	return want
}

// checkFragBuilds asserts the run behind cache built every demanded tier of
// every scanned block exactly once: wantBlocks blocks under kind, and a tier
// build count equal to the sum of their demanded tiers. A rank rebuilding a
// block's index (per rank, per quantum, per attempt) overshoots the count; a
// scan path that bypasses the cache's index undershoots it.
func checkFragBuilds(t *testing.T, cache *indexCache, kind cacheKind, wantBlocks int, in Input, opt Options) {
	t.Helper()
	blocks := cache.blocksOfKind(kind)
	if len(blocks) != wantBlocks {
		t.Errorf("cache holds %d block indexes, want %d", len(blocks), wantBlocks)
	}
	want, distinct := 0, map[tierKey]bool{}
	for _, b := range blocks {
		d := demandedTiers(t, b.ix, in, opt)
		want += len(d)
		for k := range d {
			distinct[k] = true
		}
	}
	if want == 0 {
		t.Fatal("degenerate workload: no tier demanded")
	}
	if got := cache.fragBuild.Builds(); got != want {
		t.Errorf("built %d tiers, want %d (%d blocks, %d distinct tiers)", got, want, len(blocks), len(distinct))
	}
	// The workload is chosen so every block holds candidates of every
	// charge class: the count is the issue's blocks × tiers, literally.
	if want != len(blocks)*len(distinct) {
		t.Errorf("workload demands %d tiers over %d blocks × %d distinct; pick one where every block needs every tier",
			want, len(blocks), len(distinct))
	}
}

// TestFragIdxBuiltOncePerBlock pins the ownership of the fragment index: it
// belongs to the block, lives in the run's cache next to the digest index,
// and each of its tiers is built once per run — however many ranks scan the
// block, however many quanta, epochs or recovery attempts construct a fresh
// loaded shim (and with it a cold scanState) around the scan.
func TestFragIdxBuiltOncePerBlock(t *testing.T) {
	in := testInput(t, 80, 24)
	opt := testOptions()
	opt.ScanMode = ScanModeFragIdx
	opt.Prefilter = 0.1 // adds the charge-1 quick tier to every block

	serial, err := Serial(in, opt, cluster.GigabitCluster())
	if err != nil {
		t.Fatal(err)
	}

	engines := []struct {
		name   string
		algo   Algorithm
		ranks  int
		kind   cacheKind
		blocks int
	}{
		{"algorithm-a", AlgoA, 4, kindIndex, 4},
		{"algorithm-b", AlgoB, 4, kindIndex, 4},
		{"subgroup", AlgoSubGroup, 4, kindIndex, 2},
		{"candidate", AlgoCandidate, 4, kindCandIndex, 4},
		{"master-worker", AlgoMasterWorker, 4, kindIndex, 1},
		{"master-worker-solo", AlgoMasterWorker, 1, kindIndex, 1},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			o := opt
			o.Groups = 2
			cache := newIndexCache()
			res, err := runOn(e.algo, clusterCfg(e.ranks), in, o, cache)
			if err != nil {
				t.Fatal(err)
			}
			queriesEqual(t, e.name, serial.Queries, res.Queries)
			checkFragBuilds(t, cache, e.kind, e.blocks, in, o)
		})
	}

	t.Run("resilient-crash", func(t *testing.T) {
		cache := newIndexCache()
		res, rec, err := runResilient(clusterCfg(4), in, opt, ResilientOptions{
			CheckpointEvery: 1,
			Faults:          []*cluster.FaultPlan{{CrashAtCall: map[int]int{1: 9}}},
		}, cache)
		if err != nil {
			t.Fatalf("%v (attempts: %+v)", err, rec.Attempts)
		}
		if len(rec.Attempts) != 2 {
			t.Fatalf("ran %d attempts, want 2", len(rec.Attempts))
		}
		queriesEqual(t, "resilient", serial.Queries, res.Queries)
		checkFragBuilds(t, cache, kindIndex, 4, in, opt)
	})

	t.Run("elastic-leave-join", func(t *testing.T) {
		static, _, err := RunElastic(clusterCfg(4), in, opt, ElasticOptions{})
		if err != nil {
			t.Fatal(err)
		}
		horizon := static.Metrics.RunSec
		mp := &cluster.MembershipPlan{Universe: 5, Initial: 4, Events: []cluster.MemberEvent{
			{TimeSec: horizon * 0.2, Join: []int{4}, Leave: []int{1}},
		}}
		cache := newIndexCache()
		res, _, err := runElastic(clusterCfg(4), in, opt, ElasticOptions{Membership: mp}, cache)
		if err != nil {
			t.Fatal(err)
		}
		if migrationTotal(res.Metrics) == 0 {
			t.Error("leave+join moved no block: the timeline did not fire")
		}
		queriesEqual(t, "elastic", serial.Queries, res.Queries)
		checkFragBuilds(t, cache, kindIndex, 4, in, opt)
	})

	t.Run("backend-quanta-rotate", func(t *testing.T) {
		bk, err := NewBackend(in.DBData, opt, 4)
		if err != nil {
			t.Fatal(err)
		}
		mach, err := cluster.New(clusterCfg(5))
		if err != nil {
			t.Fatal(err)
		}
		if rep, err := bk.Boot(mach, []int{0, 1, 2, 3}); err != nil || rep.Err != nil {
			t.Fatalf("boot: %v / %+v", err, rep)
		}
		bs := NewBatch(1, in.Queries)
		bs.SetOwner(0)
		quanta := 0
		scanOne := func() {
			t.Helper()
			rep, err := bk.ScanBatch(mach, bs, mach.MaxTime(), 1)
			if err != nil || rep.Err != nil {
				t.Fatalf("quantum %d: %v / %+v", quanta, err, rep)
			}
			quanta++
		}
		scanOne()
		scanOne()
		if rep, migs, err := bk.Rotate(mach, []int{0, 1, 2, 4}); err != nil || rep == nil || rep.Err != nil || len(migs) == 0 {
			t.Fatalf("rotate: %v / %+v / %d migrations", err, rep, len(migs))
		}
		for !bs.Done() {
			scanOne()
		}
		if quanta < 3 {
			t.Fatalf("batch finished in %d quanta, want >= 3", quanta)
		}
		queriesEqual(t, "backend", serial.Queries, bs.Results())
		checkFragBuilds(t, bk.cache, kindIndex, 4, in, opt)
	})
}
