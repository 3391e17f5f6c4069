package core

import (
	"fmt"
	"runtime"
	"testing"

	"pepscale/internal/chem"
	"pepscale/internal/cluster"
	"pepscale/internal/digest"
	"pepscale/internal/fasta"
	"pepscale/internal/score"
	"pepscale/internal/synth"
	"pepscale/internal/topk"
)

// scanFixture builds a warmed scan workload: a digested mass index over a
// synthetic database plus prepared queries and pre-filled top-τ lists, so
// the benchmark measures only the candidate-scan inner loop (the paper's
// Table III candidates/sec rate, here in host wall-clock).
type scanFixture struct {
	ix    *digest.Index
	qs    []*score.Query
	lists []*topk.List
	sc    score.Scorer
	scan  scanState
	opt   Options
	idOf  func(int32) string
	cands int64
}

func newScanFixture(b testing.TB, scorer string, nDB, nQ int) *scanFixture {
	return newScanFixtureOpt(b, scorer, nDB, nQ, nil)
}

// newScanFixtureOpt is newScanFixture with an Options hook applied before
// anything is built, for fixtures that need a non-default precursor
// tolerance.
func newScanFixtureOpt(b testing.TB, scorer string, nDB, nQ int, mutate func(*Options)) *scanFixture {
	b.Helper()
	db := synth.GenerateDB(synth.SizedSpec(nDB))
	truths, err := synth.GenerateSpectra(db, synth.DefaultSpectraSpec(nQ))
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Tau = 10
	opt.ScorerName = scorer
	if mutate != nil {
		mutate(&opt)
	}
	sc, err := score.New(scorer, opt.Score)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := digest.NewIndex(db, 0, opt.Digest)
	if err != nil {
		b.Fatal(err)
	}
	qs := prepareQueries(nil, synth.Spectra(truths), opt.Score)
	lists := make([]*topk.List, len(qs))
	for i := range lists {
		lists[i] = topk.New(opt.Tau)
	}
	f := &scanFixture{ix: ix, qs: qs, lists: lists, sc: sc, opt: opt, idOf: blockIDResolver(db, 0)}
	// Warm passes: fill the top-τ lists and the persistent sweep state so
	// timed scans exercise the steady-state path (threshold rejections, warm
	// caches, no buffer growth). One pass is not enough — re-scanning the
	// same queries keeps raising the list thresholds for a few rounds, so
	// warm until the accepted-offer count stops falling (it converges within
	// a handful of scans) or the timed loop would blend fill-up transients
	// into the rate at small iteration counts.
	st := f.scan.scan(f.qs, f.lists, f.ix, f.sc, f.opt, f.idOf)
	f.cands = st.Candidates
	if f.cands == 0 {
		b.Fatal("degenerate scan fixture: zero candidates")
	}
	prev := st.Offered
	for i := 0; i < 16; i++ {
		w := f.scan.scan(f.qs, f.lists, f.ix, f.sc, f.opt, f.idOf)
		if w.Offered >= prev {
			break
		}
		prev = w.Offered
	}
	// Collect the build garbage (and any prior sub-benchmark's dead fixture)
	// so the timed loop starts from a small live heap: without this, the GC
	// debt of whichever benchmark ran earlier in the process is paid inside
	// this one's measurement.
	runtime.GC()
	return f
}

// BenchmarkScanKernel measures host wall-clock candidates/sec of the warmed
// candidate-scan hot path — the loop every engine funnels through. The
// cand/s metric is the host-side analogue of the paper's Table III rate.
func BenchmarkScanKernel(b *testing.B) {
	for _, scorer := range []string{"likelihood", "hyper", "sharedpeaks"} {
		b.Run(scorer, func(b *testing.B) {
			f := newScanFixture(b, scorer, 300, 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.scan.scan(f.qs, f.lists, f.ix, f.sc, f.opt, f.idOf)
			}
			b.StopTimer()
			candPerOp := float64(f.cands)
			b.ReportMetric(candPerOp, "cand/op")
			b.ReportMetric(candPerOp*float64(b.N)/b.Elapsed().Seconds(), "cand/s")
		})
	}
}

// scanDensities are the query counts of the overlap-density sweep: more
// queries over the same index mean more window overlap, i.e. more queries
// sharing each prepared candidate.
var scanDensities = []int{8, 128, 1024, 4096}

// BenchmarkScanKernelBatched measures the peptide-major sweep on the
// likelihood model across query-overlap densities.
func BenchmarkScanKernelBatched(b *testing.B) {
	for _, nQ := range scanDensities {
		b.Run(fmt.Sprintf("likelihood/q=%d", nQ), func(b *testing.B) {
			f := newScanFixture(b, "likelihood", 300, nQ)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.scan.scan(f.qs, f.lists, f.ix, f.sc, f.opt, f.idOf)
			}
			b.StopTimer()
			candPerOp := float64(f.cands)
			b.ReportMetric(candPerOp, "cand/op")
			b.ReportMetric(candPerOp*float64(b.N)/b.Elapsed().Seconds(), "cand/s")
		})
	}
}

// BenchmarkScanKernelWindowSweep sweeps the precursor-window width at a
// fixed query count: wider windows mean more candidates per query and
// deeper window overlap, where the sweep's per-group Prepare amortization
// saturates.
func BenchmarkScanKernelWindowSweep(b *testing.B) {
	for _, delta := range []float64{1, 3, 10} {
		b.Run(fmt.Sprintf("likelihood/delta=%g", delta), func(b *testing.B) {
			f := newScanFixtureOpt(b, "likelihood", 300, 1024, func(o *Options) {
				o.Tol = chem.DaltonTolerance(delta)
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.scan.scan(f.qs, f.lists, f.ix, f.sc, f.opt, f.idOf)
			}
			b.StopTimer()
			candPerOp := float64(f.cands)
			b.ReportMetric(candPerOp, "cand/op")
			b.ReportMetric(candPerOp*float64(b.N)/b.Elapsed().Seconds(), "cand/s")
		})
	}
}

// BenchmarkScanKernelQueryMajor is the historical query-major scan on the
// same workloads — the baseline the batched numbers are compared against in
// EXPERIMENTS.md.
func BenchmarkScanKernelQueryMajor(b *testing.B) {
	for _, nQ := range scanDensities {
		b.Run(fmt.Sprintf("likelihood/q=%d", nQ), func(b *testing.B) {
			f := newScanFixture(b, "likelihood", 300, nQ)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scanIndexQueryMajor(f.qs, f.lists, f.ix, f.sc, f.opt, f.idOf)
			}
			b.StopTimer()
			candPerOp := float64(f.cands)
			b.ReportMetric(candPerOp, "cand/op")
			b.ReportMetric(candPerOp*float64(b.N)/b.Elapsed().Seconds(), "cand/s")
		})
	}
}

// BenchmarkEngineHostTime measures the full engine run (host wall-clock of
// the simulation, dominated by the scan kernel).
func BenchmarkEngineHostTime(b *testing.B) {
	db := synth.GenerateDB(synth.SizedSpec(200))
	data := fasta.Marshal(db)
	truths, err := synth.GenerateSpectra(db, synth.DefaultSpectraSpec(8))
	if err != nil {
		b.Fatal(err)
	}
	in := Input{DBData: data, Queries: synth.Spectra(truths)}
	opt := DefaultOptions()
	opt.Tau = 10
	for _, p := range []int{4} {
		b.Run(fmt.Sprintf("algo-a/p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(AlgoA, cluster.Config{Ranks: p, Cost: cluster.GigabitCluster()}, in, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBackendQuantum measures one pepd quantum — one block step of a
// two-query batch on a warm backend (resident scanners, prepared-fragment
// tables filled by earlier batches) — with its allocations. A batch's
// first quantum also conditions its queries, so an op averages p0 quanta
// of the batch cycle.
func BenchmarkBackendQuantum(b *testing.B) {
	db, pool := backendWorkload(b, 1000, 64)
	opt := DefaultOptions()
	bk, mach := bootBackend(b, db, opt, 4)
	id := int32(0)
	var bs *BatchState
	next := func() {
		if bs == nil || bs.Done() {
			id++
			at := 2 * int(id) % len(pool)
			bs = NewBatch(id, pool[at:at+2])
		}
		scanQuantum(b, bk, mach, bs)
	}
	for i := 0; i < 4*len(pool); i++ { // every query pair in every block order
		next()
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
}
