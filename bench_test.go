// Benchmarks regenerating every table and figure of the paper at
// miniature scale, plus microbenchmarks of the hot paths. Virtual-time
// results (the reproduction targets) are attached as custom metrics
// (vsec/run, vcand/s, …); wall-clock ns/op measures the simulator itself.
//
// The full-scale reproduction lives in cmd/paperbench; these benches keep
// every experiment exercised by `go test -bench`.
package pepscale_test

import (
	"fmt"
	"sync"
	"testing"

	"pepscale"
	"pepscale/internal/chem"
	"pepscale/internal/cluster"
	"pepscale/internal/core"
	"pepscale/internal/digest"
	"pepscale/internal/fasta"
	"pepscale/internal/fdr"
	"pepscale/internal/score"
	"pepscale/internal/sortmz"
	"pepscale/internal/synth"
)

// fixture is the shared miniature workload: a 1,000-sequence database and
// 24 query spectra drawn from an independent human-like database.
type fixtureData struct {
	db      []fasta.Record
	data    []byte
	queries []*pepscale.Spectrum
	opt     core.Options
	cost    cluster.CostModel
}

var (
	fixtureOnce sync.Once
	fixtureVal  *fixtureData
)

func fixture(b *testing.B) *fixtureData {
	b.Helper()
	fixtureOnce.Do(func() {
		db := synth.GenerateDB(synth.SizedSpec(1000))
		qdb := synth.GenerateDB(func() synth.DBSpec {
			s := synth.HumanSpec(1)
			s.NumSequences = 300
			return s
		}())
		truths, err := synth.GenerateSpectra(qdb, synth.DefaultSpectraSpec(24))
		if err != nil {
			panic(err)
		}
		opt := core.DefaultOptions()
		opt.Tau = 10
		fixtureVal = &fixtureData{
			db:      db,
			data:    fasta.Marshal(db),
			queries: synth.Spectra(truths),
			opt:     opt,
			cost:    cluster.GigabitCluster(),
		}
	})
	return fixtureVal
}

func runSearch(b *testing.B, f *fixtureData, algo core.Algorithm, p int, opt core.Options) *core.Result {
	b.Helper()
	res, err := core.Run(algo, cluster.Config{Ranks: p, Cost: f.cost},
		core.Input{DBData: f.data, Queries: f.queries}, opt)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Stats regenerates Table I (database statistics).
func BenchmarkTable1Stats(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		st := synth.Stats(synth.GenerateDB(synth.SizedSpec(2000)))
		avg = st.AvgLength
	}
	b.ReportMetric(avg, "avg-seq-len")
}

// BenchmarkTable2RuntimeGrid regenerates Table II cells: Algorithm A
// run-time across database and processor sizes.
func BenchmarkTable2RuntimeGrid(b *testing.B) {
	f := fixture(b)
	for _, p := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = runSearch(b, f, core.AlgoA, p, f.opt).Metrics.RunSec
			}
			b.ReportMetric(v, "vsec/run")
		})
	}
}

// BenchmarkTable3CandidateRate regenerates Table III: candidates per
// (virtual) second versus processor count.
func BenchmarkTable3CandidateRate(b *testing.B) {
	f := fixture(b)
	for _, p := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = runSearch(b, f, core.AlgoA, p, f.opt).Metrics.CandidatesPerSec()
			}
			b.ReportMetric(rate, "vcand/s")
		})
	}
}

// BenchmarkTable4AvsB regenerates Table IV: Algorithm A vs B run-times and
// B's sorting overhead.
func BenchmarkTable4AvsB(b *testing.B) {
	f := fixture(b)
	for _, cfg := range []struct {
		name string
		algo core.Algorithm
	}{{"a", core.AlgoA}, {"b", core.AlgoB}} {
		for _, p := range []int{4, 16} {
			b.Run(fmt.Sprintf("algo=%s/p=%d", cfg.name, p), func(b *testing.B) {
				var run, sort float64
				for i := 0; i < b.N; i++ {
					m := runSearch(b, f, cfg.algo, p, f.opt).Metrics
					run, sort = m.RunSec, m.SortSec
				}
				b.ReportMetric(run, "vsec/run")
				if cfg.algo == core.AlgoB {
					b.ReportMetric(sort, "vsort-sec")
				}
			})
		}
	}
}

// BenchmarkFig4Speedup regenerates Figure 4: speedup and efficiency of
// Algorithm A at p=8 relative to p=1.
func BenchmarkFig4Speedup(b *testing.B) {
	f := fixture(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		t1 := runSearch(b, f, core.AlgoA, 1, f.opt).Metrics.RunSec
		t8 := runSearch(b, f, core.AlgoA, 8, f.opt).Metrics.RunSec
		speedup = t1 / t8
	}
	b.ReportMetric(speedup, "speedup@8")
	b.ReportMetric(speedup/8*100, "efficiency@8-%")
}

// BenchmarkFig1aGrowth regenerates Figure 1a's growth model.
func BenchmarkFig1aGrowth(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		pts := synth.GenBankGrowth(1990, 2008)
		last = pts[len(pts)-1].BasePairs
	}
	b.ReportMetric(last, "bp-2008")
}

// BenchmarkFig1bCandidates regenerates Figure 1b: candidates per spectrum
// by source complexity (family vs genome vs community).
func BenchmarkFig1bCandidates(b *testing.B) {
	f := fixture(b)
	masses := make([]float64, len(f.queries))
	for i, q := range f.queries {
		masses[i] = q.ParentMass()
	}
	scopes := []synth.SurveyScope{
		{Name: "family", DB: f.db[:50], Params: f.opt.Digest},
		{Name: "genome", DB: f.db[:500], Params: f.opt.Digest},
		{Name: "community", DB: f.db, Params: f.opt.Digest},
	}
	var community float64
	for i := 0; i < b.N; i++ {
		rows, err := synth.CandidateSurvey(scopes, masses, f.opt.Tol)
		if err != nil {
			b.Fatal(err)
		}
		community = rows[2].MeanPerQuery
	}
	b.ReportMetric(community, "cand/query-community")
}

// BenchmarkMaskingAblation regenerates the §III masking comparison.
func BenchmarkMaskingAblation(b *testing.B) {
	f := fixture(b)
	for _, cfg := range []struct {
		name string
		algo core.Algorithm
	}{{"masked", core.AlgoA}, {"unmasked", core.AlgoANoMask}} {
		b.Run(cfg.name, func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = runSearch(b, f, cfg.algo, 16, f.opt).Metrics.RunSec
			}
			b.ReportMetric(v, "vsec/run")
		})
	}
}

// BenchmarkSubGroup exercises the paper's proposed sub-group extension.
func BenchmarkSubGroup(b *testing.B) {
	f := fixture(b)
	for _, g := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("groups=%d", g), func(b *testing.B) {
			opt := f.opt
			opt.Groups = g
			var run float64
			var resident int64
			for i := 0; i < b.N; i++ {
				m := runSearch(b, f, core.AlgoSubGroup, 8, opt).Metrics
				run, resident = m.RunSec, m.MaxResidentBytes()
			}
			b.ReportMetric(run, "vsec/run")
			b.ReportMetric(float64(resident), "resident-B/rank")
		})
	}
}

// BenchmarkSpaceOptimality contrasts Algorithm A's O(N/p) memory with the
// master–worker baseline's O(N).
func BenchmarkSpaceOptimality(b *testing.B) {
	f := fixture(b)
	for _, cfg := range []struct {
		name string
		algo core.Algorithm
	}{{"algorithm-a", core.AlgoA}, {"master-worker", core.AlgoMasterWorker}} {
		b.Run(cfg.name, func(b *testing.B) {
			var resident int64
			for i := 0; i < b.N; i++ {
				resident = runSearch(b, f, cfg.algo, 8, f.opt).Metrics.MaxResidentBytes()
			}
			b.ReportMetric(float64(resident), "resident-B/rank")
		})
	}
}

// --- Microbenchmarks of the hot paths (real wall-clock) ---

// BenchmarkScorers measures per-candidate scoring cost for each model.
func BenchmarkScorers(b *testing.B) {
	cfg := score.DefaultConfig()
	pep := []byte("LLNANVVNVEQIEHEK")
	// Build a realistic query from a generated experimental spectrum.
	truths, err := synth.GenerateSpectra(synth.GenerateDB(synth.SizedSpec(50)), synth.DefaultSpectraSpec(1))
	if err != nil {
		b.Fatal(err)
	}
	q := score.PrepareQuery(truths[0].Spectrum, cfg)
	for _, name := range score.Names() {
		b.Run(name, func(b *testing.B) {
			sc, err := score.New(name, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var v float64
			for i := 0; i < b.N; i++ {
				v = sc.Score(q, pep, nil)
			}
			_ = v
		})
	}
}

// BenchmarkDigestIndex measures digestion + mass indexing throughput.
func BenchmarkDigestIndex(b *testing.B) {
	db := synth.GenerateDB(synth.SizedSpec(200))
	params := digest.DefaultParams()
	var residues int
	for _, r := range db {
		residues += len(r.Seq)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := digest.NewIndex(db, 0, params)
		if err != nil {
			b.Fatal(err)
		}
		_ = ix.Len()
	}
	b.ReportMetric(float64(residues), "residues")
}

// BenchmarkCountingSort measures the parallel m/z counting sort.
func BenchmarkCountingSort(b *testing.B) {
	db := synth.GenerateDB(synth.SizedSpec(1000))
	for i := 0; i < b.N; i++ {
		mach, err := cluster.New(cluster.Config{Ranks: 8, Cost: cluster.GigabitCluster()})
		if err != nil {
			b.Fatal(err)
		}
		err = mach.Run(func(r *cluster.Rank) error {
			lo, hi := len(db)*r.ID()/8, len(db)*(r.ID()+1)/8
			seqs := make([]sortmz.Seq, 0, hi-lo)
			for j := lo; j < hi; j++ {
				seqs = append(seqs, sortmz.Seq{GID: int32(j), Rec: db[j]})
			}
			_, err := sortmz.Sort(r, seqs, sortmz.Params{MassType: chem.Mono})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterCollectives measures the virtual machine's collective
// overhead (real wall-clock of the simulation).
func BenchmarkClusterCollectives(b *testing.B) {
	mach, err := cluster.New(cluster.Config{Ranks: 16, Cost: cluster.GigabitCluster()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mach.Run(func(r *cluster.Rank) error {
			for k := 0; k < 10; k++ {
				r.AllreduceInt64(cluster.OpSum, int64(r.ID()))
				r.Barrier()
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		mach.Reset()
	}
}

// BenchmarkCandidateTransport compares Algorithm A against the
// candidate-transport engine on a digestion-heavy cost model (the paper's
// §III-A scenario: "a dominant fraction of the query processing time is
// spent on generating candidates on-the-fly").
func BenchmarkCandidateTransport(b *testing.B) {
	f := fixture(b)
	heavy := f.cost
	heavy.DigestSecPerResidue *= 20
	for _, cfg := range []struct {
		name string
		algo core.Algorithm
	}{{"algorithm-a", core.AlgoA}, {"candidate", core.AlgoCandidate}} {
		b.Run(cfg.name, func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(cfg.algo, cluster.Config{Ranks: 8, Cost: heavy},
					core.Input{DBData: f.data, Queries: f.queries}, f.opt)
				if err != nil {
					b.Fatal(err)
				}
				v = res.Metrics.RunSec
			}
			b.ReportMetric(v, "vsec/run")
		})
	}
}

// BenchmarkPrefilterAblation contrasts full scoring with the aggressive
// X!!Tandem-style prefilter (speed at the cost of missed identifications).
func BenchmarkPrefilterAblation(b *testing.B) {
	f := fixture(b)
	for _, cfg := range []struct {
		name      string
		prefilter float64
	}{{"full", 0}, {"prefiltered", 0.28}} {
		b.Run(cfg.name, func(b *testing.B) {
			opt := f.opt
			opt.Prefilter = cfg.prefilter
			var v float64
			for i := 0; i < b.N; i++ {
				v = runSearch(b, f, core.AlgoA, 8, opt).Metrics.RunSec
			}
			b.ReportMetric(v, "vsec/run")
		})
	}
}

// BenchmarkScorerAblation measures end-to-end virtual runtime per scoring
// model (the quality/cost trade-off of the paper's §I.A discussion).
func BenchmarkScorerAblation(b *testing.B) {
	f := fixture(b)
	for _, name := range score.Names() {
		b.Run(name, func(b *testing.B) {
			opt := f.opt
			opt.ScorerName = name
			var v float64
			for i := 0; i < b.N; i++ {
				v = runSearch(b, f, core.AlgoA, 8, opt).Metrics.RunSec
			}
			b.ReportMetric(v, "vsec/run")
		})
	}
}

// BenchmarkRMABandwidthSensitivity sweeps the software-RMA throughput knob
// to show where communication starts dominating Algorithm A.
func BenchmarkRMABandwidthSensitivity(b *testing.B) {
	f := fixture(b)
	for _, mbps := range []float64{5, 25, 1000} {
		b.Run(fmt.Sprintf("rma=%gMBps", mbps), func(b *testing.B) {
			cost := f.cost
			cost.RMABytesPerSec = mbps * 1e6
			var v float64
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.AlgoA, cluster.Config{Ranks: 16, Cost: cost},
					core.Input{DBData: f.data, Queries: f.queries}, f.opt)
				if err != nil {
					b.Fatal(err)
				}
				v = res.Metrics.RunSec
			}
			b.ReportMetric(v, "vsec/run")
		})
	}
}

// BenchmarkFDREstimate measures target-decoy q-value assignment on genuine
// spectra (true peptides present among the targets).
func BenchmarkFDREstimate(b *testing.B) {
	f := fixture(b)
	truths, err := synth.GenerateSpectra(f.db, synth.DefaultSpectraSpec(24))
	if err != nil {
		b.Fatal(err)
	}
	withDecoys := fdr.DecoyDatabase(f.db)
	res, err := core.Run(core.AlgoA, cluster.Config{Ranks: 4, Cost: f.cost},
		core.Input{DBData: fasta.Marshal(withDecoys), Queries: synth.Spectra(truths)}, f.opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var accepted int
	for i := 0; i < b.N; i++ {
		psms := fdr.Estimate(fdr.TopPSMs(res.Queries))
		accepted = len(fdr.AcceptedAt(psms, 0.05))
	}
	b.ReportMetric(float64(accepted), "accepted@5%")
}
