package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pepscale/internal/ckpt"
	"pepscale/internal/cluster"
	"pepscale/internal/fasta"
	"pepscale/internal/spectrum"
	"pepscale/internal/synth"
)

// bootBackend partitions db into one block per rank of a fresh ranks-rank
// machine and boots every rank as a member.
func bootBackend(t testing.TB, db []byte, opt Options, ranks int) (*Backend, *cluster.Machine) {
	t.Helper()
	bk, err := NewBackend(db, opt, ranks)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := cluster.New(cluster.Config{Ranks: ranks, Cost: cluster.GigabitCluster()})
	if err != nil {
		t.Fatal(err)
	}
	members := make([]int, ranks)
	for i := range members {
		members[i] = i
	}
	if rep, err := bk.Boot(mach, members); err != nil || !rep.OK() {
		t.Fatalf("Boot: %v, %v", err, rep.Err)
	}
	return bk, mach
}

// scanQuantum runs one one-step quantum of bs.
func scanQuantum(t testing.TB, bk *Backend, mach *cluster.Machine, bs *BatchState) {
	t.Helper()
	if rep, err := bk.ScanBatch(mach, bs, 0, 1); err != nil || !rep.OK() {
		t.Fatalf("ScanBatch: %v, %v", err, rep.Err)
	}
}

// backendWorkload is a synthetic database and query pool with precursor
// charges 1–4.
func backendWorkload(t testing.TB, nDB, nQ int) ([]byte, []*spectrum.Spectrum) {
	t.Helper()
	db := synth.GenerateDB(synth.SizedSpec(nDB))
	spec := synth.DefaultSpectraSpec(nQ)
	spec.Charges = []int{1, 2, 3, 4}
	truths, err := synth.GenerateSpectra(db, spec)
	if err != nil {
		t.Fatal(err)
	}
	return fasta.Marshal(db), synth.Spectra(truths)
}

// TestBackendWarmTableMatchesSerial: batches scanned through the resident
// scanners and warm prepared-fragment tables report core.Serial's hits for
// every scorer. The batches overlap and interleave quantum by quantum, so
// a rank's scanner rebinds between batches and a query lands in different
// slots; the third batch repeats the first on another rank, so every
// candidate it prepares is already in a table, and it is invalidated and
// handed to a third rank mid-sweep.
func TestBackendWarmTableMatchesSerial(t *testing.T) {
	db, pool := backendWorkload(t, 60, 12)
	for _, scorer := range []string{"likelihood", "hyper", "sharedpeaks", "xcorr"} {
		opt := DefaultOptions()
		opt.Tau = 10
		opt.ScorerName = scorer
		opt.Score.Theoretical.MaxFragmentCharge = 3
		res, err := Serial(Input{DBData: db, Queries: pool}, opt, cluster.GigabitCluster())
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]QueryResult, len(res.Queries))
		for _, q := range res.Queries {
			want[q.ID] = q
		}

		bk, mach := bootBackend(t, db, opt, 4)
		reversed := make([]*spectrum.Spectrum, 0, 8)
		for i := 11; i >= 4; i-- {
			reversed = append(reversed, pool[i])
		}
		batches := []*BatchState{NewBatch(1, pool[:8]), NewBatch(2, reversed), NewBatch(3, pool[:8])}
		for i, bs := range batches {
			bs.SetOwner(i % 2)
		}
		for quanta := 0; ; quanta++ {
			busy := false
			for _, bs := range batches {
				if !bs.Done() {
					scanQuantum(t, bk, mach, bs)
					busy = true
				}
			}
			if !busy {
				break
			}
			if quanta == 1 {
				bk.Invalidate(batches[2])
				batches[2].SetOwner(3)
			}
		}
		hits := 0
		for _, bs := range batches {
			for _, qr := range bs.Results() {
				hits += len(qr.Hits)
				if w := want[qr.ID]; !reflect.DeepEqual(qr.Hits, w.Hits) {
					t.Errorf("%s: batch %d query %s hits differ from Serial:\n got %+v\nwant %+v",
						scorer, bs.ID(), qr.ID, qr.Hits, w.Hits)
				}
			}
		}
		if hits == 0 {
			t.Errorf("%s: no batch reported a hit", scorer)
		}
	}
}

// backendQuantumBudget is the heap bytes per query a batch may allocate
// on a warm backend beyond its own PrepareQuery output: its top-τ lists,
// hit strings, checkpoints and results, and the machine's per-Run cost.
const backendQuantumBudget = 16 << 10

// TestBackendQuantumAllocBudget: once one batch has warmed the backend, a
// second batch over the same blocks allocates no block-sized buffer (a
// fetched block lands in the owner's resident buffer) and no scorer scratch
// (the owner's scanner and its query tables are resident, and every
// candidate's passes are in the tables). The two batch ids are p0 apart,
// so both walk the blocks in one order, their top-τ floors evolve alike,
// and the second needs no null pass the first did not store.
func TestBackendQuantumAllocBudget(t *testing.T) {
	db, pool := backendWorkload(t, 2000, 8)
	opt := DefaultOptions()
	opt.Tau = 10
	bk, mach := bootBackend(t, db, opt, 4)
	smallest := len(db)
	for _, rg := range fasta.Ranges(db, 4) {
		smallest = min(smallest, rg.End-rg.Start)
	}
	if backendQuantumBudget*len(pool) >= smallest {
		t.Fatalf("budget %d B × %d queries does not exclude a %d B block", backendQuantumBudget, len(pool), smallest)
	}
	run := func(id int32) {
		bs := NewBatch(id, pool)
		for !bs.Done() {
			scanQuantum(t, bk, mach, bs)
		}
	}
	run(1)
	prep := heapBytes(func() { prepareQueries(nil, pool, opt.Score) })
	got := heapBytes(func() { run(1 + 4) })
	if extra := int64(got) - int64(prep); extra > int64(backendQuantumBudget*len(pool)) {
		t.Errorf("a warm batch of %d queries allocated %d B beyond its %d B of PrepareQuery output (%d B/query), budget %d B/query",
			len(pool), extra, prep, extra/int64(len(pool)), backendQuantumBudget)
	}
}

// TestBackendRejectsOutOfRangeCheckpoint: a checkpoint whose cursor or
// candidate count is negative is refused as a shape mismatch, like one past
// the sweep. Before the check, a cursor of −1 made batch 0's first step
// index block −1, and batch 7's scan block (7−1) mod 4 at step −1, a block
// its sweep offers again later.
func TestBackendRejectsOutOfRangeCheckpoint(t *testing.T) {
	db, pool := backendWorkload(t, 60, 4)
	opt := DefaultOptions()
	opt.Tau = 10
	for _, tc := range []struct {
		name       string
		batch      int32
		cursor     int32
		candidates int64
	}{
		{"batch 0, cursor -1", 0, -1, 0},
		{"batch 7, cursor -1", 7, -1, 0},
		{"batch 7, candidates -1", 7, 1, -1},
	} {
		bk, mach := bootBackend(t, db, opt, 4)
		cp := ckpt.Group{Group: tc.batch, Cursor: tc.cursor, Candidates: tc.candidates, Queries: make([]ckpt.Query, len(pool))}
		bk.store.Put(tc.batch, cp.Encode())
		rep, err := bk.ScanBatch(mach, NewBatch(tc.batch, pool), 0, 0)
		if err != nil {
			t.Fatalf("%s: ScanBatch: %v", tc.name, err)
		}
		if rep.Err == nil || !strings.Contains(rep.Err.Error(), "checkpoint shape mismatch") {
			t.Errorf("%s: the quantum ended with %v, want a checkpoint shape mismatch", tc.name, rep.Err)
		}
	}
}

// heapBytes returns the heap bytes f allocates.
func heapBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
