package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pepscale"
)

func TestPepidSyntheticEndToEnd(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-synth-db", "200", "-synth-queries", "6", "-p", "3", "-tau", "2", "-algo", "b"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "query\trank\tpeptide\tprotein\tmass\tscore") {
		t.Errorf("missing TSV header: %q", out[:60])
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 7 { // header + up to 2 hits × 6 queries
		t.Errorf("too few hit lines: %d", len(lines))
	}
	if !strings.Contains(stderr.String(), "engine=algorithm-b") {
		t.Errorf("metrics missing: %q", stderr.String())
	}
	if !strings.Contains(stderr.String(), "sort-time=") {
		t.Error("Algorithm B should report sort time")
	}
}

func TestPepidFilesAndDecoy(t *testing.T) {
	dir := t.TempDir()
	// Build db + spectra files via the public API.
	recs := pepscale.GenerateDatabase(pepscale.SizedDatabase(120))
	dbPath := filepath.Join(dir, "db.fasta")
	f, err := os.Create(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := pepscale.WriteFASTA(f, recs, 60); err != nil {
		t.Fatal(err)
	}
	f.Close()
	truths, err := pepscale.GenerateSpectra(recs, pepscale.DefaultSpectraSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	mgfPath := filepath.Join(dir, "q.mgf")
	g, err := os.Create(mgfPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := pepscale.WriteMGF(g, pepscale.SpectraOf(truths)); err != nil {
		t.Fatal(err)
	}
	g.Close()

	outPath := filepath.Join(dir, "hits.tsv")
	var stdout, stderr bytes.Buffer
	err = run([]string{"-db", dbPath, "-spectra", mgfPath, "-p", "4", "-tau", "3",
		"-decoy", "-fdr", "0.05", "-o", outPath}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(hits), "MICRO_") {
		t.Error("no hits written")
	}
	if !strings.Contains(stderr.String(), "appended 120 reversed-sequence decoys") {
		t.Errorf("decoy log missing: %q", stderr.String())
	}
	if !strings.Contains(stderr.String(), "identifications at q<=") {
		t.Error("FDR summary missing")
	}
}

func TestPepidMods(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-synth-db", "60", "-synth-queries", "2", "-p", "2",
		"-mods", "Oxidation(M),Phospho(STY)", "-max-mods", "1"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPepidErrors(t *testing.T) {
	sink := &bytes.Buffer{}
	if err := run([]string{"-algo", "quantum"}, sink, sink); err == nil {
		t.Error("unknown algorithm should error")
	}
	if err := run([]string{"-mods", "Bogus(X)"}, sink, sink); err == nil {
		t.Error("unknown modification should error")
	}
	if err := run([]string{"-db", "/nope.fasta"}, sink, sink); err == nil {
		t.Error("missing db file should error")
	}
	if err := run([]string{"-scorer", "bogus", "-synth-db", "30", "-synth-queries", "1"}, sink, sink); err == nil {
		t.Error("unknown scorer should error")
	}
	// The scan kernel is not a user choice: -scan is not a flag.
	err := run([]string{"-scan", "query", "-synth-db", "30", "-synth-queries", "1"}, sink, sink)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -scan") {
		t.Errorf("-scan query: err = %v, want the flag package's usage error", err)
	}
}

// TestPepidProfiles: -cpuprofile and -memprofile write non-empty files on
// the batch path together with -trace, on the -serve path, and on an error
// exit (the profile is stopped and closed however run returns — a second
// CPU profile could not start otherwise).
func TestPepidProfiles(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name    string
		args    []string
		wantErr bool
	}{
		{"batch+trace", []string{"-synth-db", "60", "-synth-queries", "2", "-p", "2", "-scorer", "hyper",
			"-trace", filepath.Join(dir, "run.json")}, false},
		{"serve", []string{"-synth-db", "60", "-synth-queries", "4", "-p", "2", "-serve", "-serve-duration", "0.1"}, false},
		{"error-exit", []string{"-synth-db", "30", "-synth-queries", "1", "-scorer", "bogus"}, true},
	}
	for _, tc := range cases {
		cpu := filepath.Join(dir, tc.name+".cpu.pprof")
		mem := filepath.Join(dir, tc.name+".mem.pprof")
		var stdout, stderr bytes.Buffer
		err := run(append(tc.args, "-cpuprofile", cpu, "-memprofile", mem), &stdout, &stderr)
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
		for _, p := range []string{cpu, mem} {
			if st, serr := os.Stat(p); serr != nil || st.Size() == 0 {
				t.Errorf("%s: profile %s missing or empty (%v)", tc.name, filepath.Base(p), serr)
			}
		}
	}
	sink := &bytes.Buffer{}
	if err := run([]string{"-cpuprofile", filepath.Join(dir, "no", "such", "dir.pprof")}, sink, sink); err == nil {
		t.Error("uncreatable -cpuprofile path should error")
	}
}
