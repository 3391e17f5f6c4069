package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"pepscale/internal/chem"
	"pepscale/internal/cluster"
	"pepscale/internal/fasta"
	"pepscale/internal/spectrum"
	"pepscale/internal/synth"
)

// TestDeterministicAcrossRuns: repeated runs of every engine produce
// identical hits AND identical virtual times (the reproducibility claim).
func TestDeterministicAcrossRuns(t *testing.T) {
	in := testInput(t, 40, 8)
	opt := testOptions()
	for _, algo := range []Algorithm{AlgoA, AlgoB, AlgoSubGroup} {
		if algo == AlgoSubGroup {
			opt.Groups = 2
		}
		var firstHits []QueryResult
		var firstTime float64
		for trial := 0; trial < 3; trial++ {
			res, err := Run(algo, clusterCfg(4), in, opt)
			if err != nil {
				t.Fatalf("%v: %v", algo, err)
			}
			if trial == 0 {
				firstHits, firstTime = res.Queries, res.Metrics.RunSec
				continue
			}
			if !reflect.DeepEqual(firstHits, res.Queries) {
				t.Errorf("%v: hits differ across runs", algo)
			}
			if res.Metrics.RunSec != firstTime {
				t.Errorf("%v: virtual time differs across runs: %v vs %v", algo, res.Metrics.RunSec, firstTime)
			}
		}
	}
}

// TestSpaceOptimality: Algorithm A's per-rank memory must shrink with p
// while master–worker's stays at O(N).
func TestSpaceOptimality(t *testing.T) {
	in := testInput(t, 200, 6)
	opt := testOptions()
	resident := func(algo Algorithm, p int) int64 {
		res, err := Run(algo, clusterCfg(p), in, opt)
		if err != nil {
			t.Fatalf("%v p=%d: %v", algo, p, err)
		}
		return res.Metrics.MaxResidentBytes()
	}
	a4 := resident(AlgoA, 4)
	a16 := resident(AlgoA, 16)
	mw4 := resident(AlgoMasterWorker, 4)
	mw16 := resident(AlgoMasterWorker, 16)
	if float64(a16) > float64(a4)*0.6 {
		t.Errorf("Algorithm A memory did not shrink with p: %d @4 vs %d @16", a4, a16)
	}
	if float64(mw16) < float64(mw4)*0.8 {
		t.Errorf("master-worker memory should stay O(N): %d @4 vs %d @16", mw4, mw16)
	}
	if a16*2 > mw16 {
		t.Errorf("A (%d) should use far less memory than MW (%d) at p=16", a16, mw16)
	}
}

// TestMaskingOnlyAffectsTime: the ablation must not change results, and
// masked time must not exceed unmasked. Masking has one meaning: Algorithm A
// with Options.Masking off is the run AlgoANoMask names.
func TestMaskingOnlyAffectsTime(t *testing.T) {
	in := testInput(t, 80, 10)
	opt := testOptions()
	masked, err := Run(AlgoA, clusterCfg(8), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	unmasked, err := Run(AlgoANoMask, clusterCfg(8), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	queriesEqual(t, "masking", masked.Queries, unmasked.Queries)
	if masked.Metrics.RunSec > unmasked.Metrics.RunSec {
		t.Errorf("masked (%v) slower than unmasked (%v)", masked.Metrics.RunSec, unmasked.Metrics.RunSec)
	}
	opt.Masking = false
	viaOption, err := Run(AlgoA, clusterCfg(8), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	queriesEqual(t, "masking-off", unmasked.Queries, viaOption.Queries)
	if viaOption.Metrics.RunSec != unmasked.Metrics.RunSec {
		t.Errorf("Algorithm A with Masking off ran %v s, AlgoANoMask %v s", viaOption.Metrics.RunSec, unmasked.Metrics.RunSec)
	}
}

// TestSpeedupMonotone: virtual run-time decreases as ranks are added (for
// a workload large enough to scale).
func TestSpeedupMonotone(t *testing.T) {
	in := testInput(t, 150, 16)
	opt := testOptions()
	var prev float64 = math.Inf(1)
	for _, p := range []int{1, 2, 4, 8} {
		res, err := Run(AlgoA, clusterCfg(p), in, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.RunSec >= prev {
			t.Errorf("run-time did not drop at p=%d: %v >= %v", p, res.Metrics.RunSec, prev)
		}
		prev = res.Metrics.RunSec
	}
}

// TestSortTimeReported: Algorithm B must report a positive sorting time
// and A must not.
func TestSortTimeReported(t *testing.T) {
	in := testInput(t, 60, 6)
	opt := testOptions()
	ra, err := Run(AlgoA, clusterCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(AlgoB, clusterCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Metrics.SortSec != 0 {
		t.Errorf("A reported sort time %v", ra.Metrics.SortSec)
	}
	if rb.Metrics.SortSec <= 0 {
		t.Errorf("B reported sort time %v", rb.Metrics.SortSec)
	}
}

// TestPrefilterConsistentAcrossEngines: the prefiltered configuration must
// still agree across engines (it changes which hits exist, identically
// everywhere).
func TestPrefilterConsistentAcrossEngines(t *testing.T) {
	in := testInput(t, 60, 8)
	opt := testOptions()
	opt.Prefilter = 0.25
	ref, err := Serial(in, opt, cluster.GigabitCluster())
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoA, AlgoB, AlgoMasterWorker} {
		res, err := Run(algo, clusterCfg(4), in, opt)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		queriesEqual(t, "prefilter/"+algo.String(), ref.Queries, res.Queries)
	}
	// Prefilter must reduce compute relative to the unfiltered run.
	plain, err := Run(AlgoA, clusterCfg(4), in, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := Run(AlgoA, clusterCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Metrics.RunSec >= plain.Metrics.RunSec {
		t.Errorf("prefilter did not reduce run-time: %v vs %v", filtered.Metrics.RunSec, plain.Metrics.RunSec)
	}
}

// TestEdgeCases exercises degenerate configurations.
func TestEdgeCases(t *testing.T) {
	opt := testOptions()

	t.Run("no-queries", func(t *testing.T) {
		in := testInput(t, 30, 4)
		in.Queries = nil
		for _, algo := range []Algorithm{AlgoA, AlgoB, AlgoMasterWorker} {
			res, err := Run(algo, clusterCfg(4), in, opt)
			if err != nil {
				t.Fatalf("%v: %v", algo, err)
			}
			if len(res.Queries) != 0 {
				t.Errorf("%v: results for no queries", algo)
			}
		}
	})

	t.Run("tau-zero", func(t *testing.T) {
		in := testInput(t, 30, 4)
		o := opt
		o.Tau = 0
		res, err := Run(AlgoA, clusterCfg(2), in, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range res.Queries {
			if len(q.Hits) != 0 {
				t.Error("tau=0 returned hits")
			}
		}
	})

	t.Run("more-ranks-than-records", func(t *testing.T) {
		in := testInput(t, 5, 3)
		res, err := Run(AlgoA, clusterCfg(12), in, opt)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Serial(in, opt, cluster.GigabitCluster())
		if err != nil {
			t.Fatal(err)
		}
		queriesEqual(t, "tiny-db", ref.Queries, res.Queries)
	})

	t.Run("single-query-many-ranks", func(t *testing.T) {
		in := testInput(t, 40, 1)
		res, err := Run(AlgoB, clusterCfg(8), in, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Queries) != 1 {
			t.Fatalf("got %d results", len(res.Queries))
		}
	})

	t.Run("zero-delta", func(t *testing.T) {
		in := testInput(t, 30, 4)
		o := opt
		o.Tol = chem.DaltonTolerance(0)
		if _, err := Run(AlgoA, clusterCfg(2), in, o); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNonFiniteQueryRejected: a query no engine can search — a NaN or
// infinite precursor (no mass window), a charge below 1, a NaN peak — is
// refused with the typed error by every entry point before anything runs,
// and by the MGF parser where such a spectrum would come from. One NaN
// parent mass used to move the candidate windows of the valid queries
// sorted around it.
func TestNonFiniteQueryRejected(t *testing.T) {
	const victim = 2
	cases := []struct {
		name   string
		mutate func(s *spectrum.Spectrum)
		mgf    string
	}{
		{"nan-precursor", func(s *spectrum.Spectrum) { s.PrecursorMZ = math.NaN() }, "PEPMASS=NaN\n"},
		{"+inf-precursor", func(s *spectrum.Spectrum) { s.PrecursorMZ = math.Inf(1) }, "PEPMASS=+Inf\n"},
		{"-inf-precursor", func(s *spectrum.Spectrum) { s.PrecursorMZ = math.Inf(-1) }, "PEPMASS=-Inf\n"},
		{"nan-peak", func(s *spectrum.Spectrum) { s.Peaks[0].MZ = math.NaN() }, "PEPMASS=500\nNaN 1\n"},
		{"charge-0", func(s *spectrum.Spectrum) { s.Charge = 0 }, "PEPMASS=500\nCHARGE=0+\n"},
	}
	opt := testOptions()
	cfg := clusterCfg(3)
	entries := []struct {
		name string
		run  func(in Input) error
	}{
		{"Serial", func(in Input) error { _, err := Serial(in, opt, cfg.Cost); return err }},
		{"Run", func(in Input) error { _, err := Run(AlgoA, cfg, in, opt); return err }},
		{"RunResilient", func(in Input) error { _, _, err := RunResilient(cfg, in, opt, ResilientOptions{}); return err }},
		{"RunElastic", func(in Input) error { _, _, err := RunElastic(cfg, in, opt, ElasticOptions{}); return err }},
		{"RunWithRecovery", func(in Input) error { _, _, err := RunWithRecovery(AlgoB, cfg, in, opt, nil, 0); return err }},
	}
	for _, tc := range cases {
		in := testInput(t, 30, 5)
		tc.mutate(in.Queries[victim])
		for _, e := range entries {
			var inv *InvalidQueryError
			if err := e.run(in); !errors.As(err, &inv) {
				t.Errorf("%s/%s: error = %v, want *InvalidQueryError", tc.name, e.name, err)
			} else if inv.Index != victim || inv.ID != in.Queries[victim].ID {
				t.Errorf("%s/%s: error names query %d (%q), want %d (%q)", tc.name, e.name, inv.Index, inv.ID, victim, in.Queries[victim].ID)
			}
		}
		mgf := "BEGIN IONS\nTITLE=q\n" + tc.mgf + "END IONS\n"
		if _, err := spectrum.ParseMGF(strings.NewReader(mgf)); !errors.Is(err, spectrum.ErrMGF) {
			t.Errorf("%s: ParseMGF(%q) error = %v, want ErrMGF", tc.name, mgf, err)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	in := testInput(t, 10, 2)
	bad := []Options{
		func() Options { o := testOptions(); o.Tau = -1; return o }(),
		func() Options { o := testOptions(); o.Tol = chem.DaltonTolerance(-2); return o }(),
		func() Options { o := testOptions(); o.ScorerName = "bogus"; return o }(),
		func() Options { o := testOptions(); o.Digest.MinLength = 0; return o }(),
	}
	for i, o := range bad {
		if _, err := Run(AlgoA, clusterCfg(2), in, o); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
		if _, err := Serial(in, o, cluster.GigabitCluster()); err == nil {
			t.Errorf("case %d: Serial should validate too", i)
		}
	}
}

func TestSubGroupValidation(t *testing.T) {
	in := testInput(t, 20, 2)
	opt := testOptions()
	opt.Groups = 3
	if _, err := Run(AlgoSubGroup, clusterCfg(8), in, opt); err == nil {
		t.Error("3 groups over 8 ranks should be rejected")
	}
}

func TestMalformedDatabase(t *testing.T) {
	in := Input{DBData: []byte("this is not fasta"), Queries: nil}
	if _, err := Run(AlgoA, clusterCfg(2), in, testOptions()); err == nil {
		t.Error("malformed database should fail")
	}
	if _, err := Serial(in, testOptions(), cluster.GigabitCluster()); err == nil {
		t.Error("Serial should fail on malformed database")
	}
}

func TestMetricsSanity(t *testing.T) {
	in := testInput(t, 80, 10)
	opt := testOptions()
	res, err := Run(AlgoA, clusterCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Ranks != 4 || m.Algorithm != "algorithm-a" {
		t.Errorf("identity: %+v", m)
	}
	if m.RunSec <= 0 || m.Candidates <= 0 || m.Hits <= 0 {
		t.Errorf("counters: %+v", m)
	}
	if len(m.PerRank) != 4 {
		t.Fatalf("per-rank entries: %d", len(m.PerRank))
	}
	var qtotal int
	for i, rm := range m.PerRank {
		if rm.ComputeSec <= 0 {
			t.Errorf("rank %d compute %v", i, rm.ComputeSec)
		}
		if rm.MaxResidentBytes <= 0 {
			t.Errorf("rank %d resident %d", i, rm.MaxResidentBytes)
		}
		if rm.BytesReceived <= 0 {
			t.Errorf("rank %d received %d bytes", i, rm.BytesReceived)
		}
		qtotal += rm.Queries
	}
	if qtotal != len(in.Queries) {
		t.Errorf("query shares sum to %d, want %d", qtotal, len(in.Queries))
	}
	if m.CandidatesPerSec() <= 0 {
		t.Error("candidates/sec")
	}
	if got := m.ResidualToComputeRatios(); len(got) != 4 {
		t.Errorf("ratios: %v", got)
	}
}

// TestHitsAreTauBoundedAndSorted checks the output contract.
func TestHitsAreTauBoundedAndSorted(t *testing.T) {
	in := testInput(t, 100, 8)
	opt := testOptions()
	opt.Tau = 7
	res, err := Run(AlgoA, clusterCfg(4), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range res.Queries {
		if len(q.Hits) > 7 {
			t.Fatalf("query %s has %d hits, tau=7", q.ID, len(q.Hits))
		}
		for i := 1; i < len(q.Hits); i++ {
			if q.Hits[i].Score > q.Hits[i-1].Score {
				t.Fatalf("query %s hits not sorted", q.ID)
			}
		}
		for _, h := range q.Hits {
			if h.ProteinID == "" || !strings.HasPrefix(h.ProteinID, "MICRO_") {
				t.Errorf("hit missing protein id: %+v", h)
			}
		}
	}
	assertHitsInWindow(t, opt, res.Queries)
}

// TestGroundTruthRecovered: engines must find the generating peptide as
// the top hit for clean synthetic spectra.
func TestGroundTruthRecovered(t *testing.T) {
	db := synth.GenerateDB(synth.SizedSpec(80))
	data := fasta.Marshal(db)
	truths, err := synth.GenerateSpectra(db, synth.DefaultSpectraSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	in := Input{DBData: data, Queries: synth.Spectra(truths)}
	res, err := Run(AlgoA, clusterCfg(4), in, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, q := range res.Queries {
		if len(q.Hits) > 0 && q.Hits[0].Peptide == truths[i].Peptide {
			correct++
		}
	}
	if correct < 8 {
		t.Errorf("only %d/10 spectra identified correctly", correct)
	}
}

// TestSubGroupMemoryTradeoff: more groups → fewer transfers but more
// memory per rank.
func TestSubGroupMemoryTradeoff(t *testing.T) {
	in := testInput(t, 120, 8)
	opt := testOptions()
	run := func(groups int) (int64, int64) {
		o := opt
		o.Groups = groups
		res, err := Run(AlgoSubGroup, clusterCfg(8), in, o)
		if err != nil {
			t.Fatal(err)
		}
		var recv int64
		for _, rm := range res.Metrics.PerRank {
			recv += rm.BytesReceived
		}
		return res.Metrics.MaxResidentBytes(), recv
	}
	mem1, recv1 := run(1)
	mem4, recv4 := run(4)
	if mem4 <= mem1 {
		t.Errorf("4 groups should hold more memory per rank: %d vs %d", mem4, mem1)
	}
	if recv4 >= recv1 {
		t.Errorf("4 groups should move fewer bytes: %d vs %d", recv4, recv1)
	}
}

// TestBSenderGroupSavesBytes: Algorithm B's sender-group restriction can
// only help when database sequences are short enough that their parent
// masses overlap the query mass range (ORF-fragment/peptide-style
// databases — with full-length proteins every sequence outweighs every
// query and the group degenerates to all ranks, the failure the paper
// observed on its human workload). On a short-sequence database with
// heavy-precursor queries, B must fetch fewer bytes than A.
func TestBSenderGroupSavesBytes(t *testing.T) {
	spec := synth.SizedSpec(800)
	spec.AvgLength = 11
	spec.LengthStdDev = 4
	spec.MinLength = 7
	db := synth.GenerateDB(spec)
	data := fasta.Marshal(db)
	sspec := synth.DefaultSpectraSpec(120)
	sspec.Digest.MinMass = 400
	truths, err := synth.GenerateSpectra(db, sspec)
	if err != nil {
		t.Fatal(err)
	}
	var heavy []*spectrum.Spectrum
	for _, tr := range truths {
		if tr.Spectrum.ParentMass() > 1300 {
			heavy = append(heavy, tr.Spectrum)
		}
	}
	if len(heavy) < 3 {
		t.Skip("not enough heavy spectra in this workload")
	}
	in := Input{DBData: data, Queries: heavy}
	opt := testOptions()
	bytesOf := func(algo Algorithm) int64 {
		res, err := Run(algo, clusterCfg(6), in, opt)
		if err != nil {
			t.Fatal(err)
		}
		var recv int64
		for _, rm := range res.Metrics.PerRank {
			recv += rm.RMABytesReceived
		}
		return recv
	}
	a, b := bytesOf(AlgoA), bytesOf(AlgoB)
	if b >= a {
		t.Errorf("B transported %d bytes via gets, A %d — sender group saved nothing", b, a)
	}
	// And results still agree.
	ra, _ := Run(AlgoA, clusterCfg(6), in, opt)
	rb, _ := Run(AlgoB, clusterCfg(6), in, opt)
	queriesEqual(t, "heavy", ra.Queries, rb.Queries)
}
