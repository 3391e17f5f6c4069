package pepscale_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pepscale"
)

func TestJobRunDefaults(t *testing.T) {
	db := pepscale.GenerateDatabase(pepscale.SizedDatabase(60))
	truths, err := pepscale.GenerateSpectra(db, pepscale.DefaultSpectraSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	// Zero-value Job: defaults to master-worker? No — Algorithm zero value
	// is AlgorithmMasterWorker; exercise an explicit engine and defaults
	// for ranks/cost/options.
	job := pepscale.Job{Algorithm: pepscale.AlgorithmA}
	res, err := job.Run(pepscale.MarshalFASTA(db), pepscale.SpectraOf(truths))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 5 {
		t.Fatalf("got %d results", len(res.Queries))
	}
	if res.Metrics.Ranks != 1 {
		t.Errorf("default ranks = %d", res.Metrics.Ranks)
	}
}

func TestJobMatchesSerial(t *testing.T) {
	db := pepscale.GenerateDatabase(pepscale.SizedDatabase(80))
	truths, err := pepscale.GenerateSpectra(db, pepscale.DefaultSpectraSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	image := pepscale.MarshalFASTA(db)
	queries := pepscale.SpectraOf(truths)
	opt := pepscale.DefaultOptions()
	opt.Tau = 5
	ref, err := pepscale.SearchSerial(image, queries, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []pepscale.Algorithm{
		pepscale.AlgorithmMasterWorker, pepscale.AlgorithmA,
		pepscale.AlgorithmANoMask, pepscale.AlgorithmB,
	} {
		job := pepscale.Job{Algorithm: algo, Ranks: 4, Options: &opt}
		res, err := job.Run(image, queries)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		for i := range ref.Queries {
			if !reflect.DeepEqual(ref.Queries[i].Hits, res.Queries[i].Hits) {
				t.Errorf("%v: query %d hits differ from serial", algo, i)
			}
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]pepscale.Algorithm{
		"a":        pepscale.AlgorithmA,
		"b":        pepscale.AlgorithmB,
		"mw":       pepscale.AlgorithmMasterWorker,
		"a-nomask": pepscale.AlgorithmANoMask,
		"subgroup": pepscale.AlgorithmSubGroup,
	}
	for s, want := range cases {
		got, err := pepscale.ParseAlgorithm(s)
		if err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := pepscale.ParseAlgorithm("quantum"); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	db := pepscale.GenerateDatabase(pepscale.SizedDatabase(10))

	fastaPath := filepath.Join(dir, "db.fasta")
	var fbuf bytes.Buffer
	if err := pepscale.WriteFASTA(&fbuf, db, 60); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fastaPath, fbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := pepscale.LoadDatabaseFile(fastaPath)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := pepscale.ParseFASTA(bytes.NewReader(data))
	if err != nil || len(recs) != 10 {
		t.Fatalf("ParseFASTA: %d recs, %v", len(recs), err)
	}

	truths, err := pepscale.GenerateSpectra(db, pepscale.DefaultSpectraSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	mgfPath := filepath.Join(dir, "q.mgf")
	var mbuf bytes.Buffer
	if err := pepscale.WriteMGF(&mbuf, pepscale.SpectraOf(truths)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mgfPath, mbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	specs, err := pepscale.LoadSpectraFile(mgfPath)
	if err != nil || len(specs) != 3 {
		t.Fatalf("LoadSpectraFile: %d, %v", len(specs), err)
	}

	if _, err := pepscale.LoadDatabaseFile(filepath.Join(dir, "missing.fasta")); err == nil {
		t.Error("missing file should error")
	}
	badPath := filepath.Join(dir, "bad.fasta")
	if err := os.WriteFile(badPath, []byte("not fasta"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pepscale.LoadDatabaseFile(badPath); err == nil {
		t.Error("malformed database file should error")
	}
}

func TestModificationByName(t *testing.T) {
	m, ok := pepscale.ModificationByName("Oxidation(M)")
	if !ok || m.Delta <= 0 {
		t.Errorf("ModificationByName: %+v, %v", m, ok)
	}
	if _, ok := pepscale.ModificationByName("Unknowonium"); ok {
		t.Error("unknown mod resolved")
	}
}

func TestEndToEndWithMods(t *testing.T) {
	db := pepscale.GenerateDatabase(pepscale.SizedDatabase(40))
	truths, err := pepscale.GenerateSpectra(db, pepscale.DefaultSpectraSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	opt := pepscale.DefaultOptions()
	opt.Tau = 5
	opt.Digest.Mods = []pepscale.Modification{pepscale.OxidationM}
	opt.Digest.MaxModsPerPeptide = 1
	job := pepscale.Job{Algorithm: pepscale.AlgorithmA, Ranks: 3, Options: &opt}
	res, err := job.Run(pepscale.MarshalFASTA(db), pepscale.SpectraOf(truths))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Candidates == 0 {
		t.Error("no candidates with mods enabled")
	}
}

func TestCostModels(t *testing.T) {
	gig := pepscale.GigabitCluster()
	lap := pepscale.LaptopDirect()
	if gig.LatencySec <= lap.LatencySec {
		t.Error("gigabit latency should exceed laptop latency")
	}
	if gig == (pepscale.CostModel{}) {
		t.Error("GigabitCluster should not be the zero model")
	}
}

func TestTolerances(t *testing.T) {
	d := pepscale.DaltonTolerance(2.5)
	lo, hi := d.Window(1000)
	if lo != 997.5 || hi != 1002.5 {
		t.Errorf("dalton window: %v %v", lo, hi)
	}
	p := pepscale.PPMTolerance(20)
	if !p.PPM {
		t.Error("PPMTolerance should set PPM")
	}
}

func TestFDRFacade(t *testing.T) {
	db := pepscale.GenerateDatabase(pepscale.SizedDatabase(40))
	if got := len(pepscale.DecoyDatabase(db)); got != 80 {
		t.Fatalf("decoy database size %d", got)
	}
	truths, err := pepscale.GenerateSpectra(db, pepscale.DefaultSpectraSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	opt := pepscale.DefaultOptions()
	opt.Tau = 2
	job := pepscale.Job{Algorithm: pepscale.AlgorithmA, Ranks: 2, Options: &opt}
	res, err := job.Run(pepscale.MarshalFASTA(pepscale.DecoyDatabase(db)), pepscale.SpectraOf(truths))
	if err != nil {
		t.Fatal(err)
	}
	psms := pepscale.EstimateFDR(res.Queries)
	sum := pepscale.SummarizeFDR(psms)
	if sum.Targets+sum.Decoys != len(psms) {
		t.Errorf("summary inconsistent: %+v", sum)
	}
	if len(pepscale.AcceptedAtFDR(psms, 1.0)) < sum.Targets {
		t.Error("alpha=1 should accept every target")
	}
}
