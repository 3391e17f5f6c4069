package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// TestPepidRejectsNonFiniteFlags: a NaN tolerance, a non-finite or
// negative -serve-window, -serve-duration or tenant rate, a -p below 1 and
// an -fdr outside [0, 1] each return an error, and promptly — before the
// fix some hung, exhausted memory building an endless arrival schedule,
// exited 0 having searched nothing, or silently ran on another value. All
// but the -delta and -serve-window errors come before any input is
// generated.
func TestPepidRejectsNonFiniteFlags(t *testing.T) {
	base := []string{"-synth-db", "30", "-synth-queries", "2", "-p", "2", "-metrics=false", "-o", os.DevNull}
	cases := []struct {
		name  string
		args  []string
		want  string
		early bool
	}{
		{"delta NaN", []string{"-delta", "NaN"}, "Tol.Value", false},
		{"window NaN", []string{"-serve", "-serve-window", "NaN"}, "BatchWindowSec", false},
		{"window Inf", []string{"-serve", "-serve-window", "Inf"}, "BatchWindowSec", false},
		{"window negative", []string{"-serve", "-serve-window", "-1"}, "BatchWindowSec", false},
		{"duration Inf", []string{"-serve", "-serve-duration", "Inf"}, "-serve-duration", true},
		{"duration NaN", []string{"-serve", "-serve-duration", "NaN"}, "-serve-duration", true},
		{"duration negative", []string{"-serve", "-serve-duration", "-1"}, "-serve-duration", true},
		{"rate Inf", []string{"-serve", "-serve-tenants", "a:steady:Inf"}, "bad rate", true},
		{"rate NaN", []string{"-serve", "-serve-tenants", "a:steady:NaN"}, "bad rate", true},
		{"rate negative", []string{"-serve", "-serve-tenants", "a:steady:-5"}, "bad rate", true},
		{"p negative", []string{"-p", "-3"}, "-p -3", true},
		{"p zero serve", []string{"-serve", "-p", "0"}, "-p 0", true},
		{"fdr above one", []string{"-decoy", "-fdr", "2"}, "-fdr 2", true},
		{"fdr negative", []string{"-decoy", "-fdr", "-0.5"}, "-fdr -0.5", true},
		{"fdr NaN", []string{"-decoy", "-fdr", "NaN"}, "-fdr NaN", true},
	}
	for _, tc := range cases {
		sink := &bytes.Buffer{}
		done := make(chan error, 1)
		go func() {
			done <- run(append(append([]string(nil), base...), tc.args...), sink, sink)
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want an error naming %s", tc.name, err, tc.want)
			}
			if tc.early && strings.Contains(sink.String(), "generated") {
				t.Errorf("%s: input generated before the flag was rejected:\n%s", tc.name, sink)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: run did not return within 30s", tc.name)
		}
	}
}

// TestPepidServeRefusesUnboundedSchedules: -serve returns a usage error,
// before any input or schedule is generated, for a schedule of more
// expected arrivals than it may hold — a long horizon, a huge steady rate,
// or adversarial floods, whose count grows with the square of the rate —
// and for a -serve-max-batch below 1, which it once replaced by 16. The
// query pool is empty, so a regression builds no schedule: Schedule
// returns at once without queries.
func TestPepidServeRefusesUnboundedSchedules(t *testing.T) {
	base := []string{"-serve", "-synth-db", "30", "-synth-queries", "0", "-p", "2", "-o", os.DevNull}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-serve-duration", "1e9"}, "7e+10 expected arrivals"},
		{[]string{"-serve-tenants", "a:steady:1e12"}, "1e+12 expected arrivals"},
		{[]string{"-serve-tenants", "a:adversarial:1e4", "-serve-duration", "1"}, "expected arrivals"},
		{[]string{"-serve-max-batch", "-1"}, "-serve-max-batch -1"},
		{[]string{"-serve-max-batch", "0"}, "-serve-max-batch 0"},
	}
	for _, tc := range cases {
		sink := &bytes.Buffer{}
		err := run(append(append([]string(nil), base...), tc.args...), sink, sink)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want a usage error with %q", tc.args, err, tc.want)
		}
		if strings.Contains(sink.String(), "generated") {
			t.Errorf("%v: input generated before the flag was refused:\n%s", tc.args, sink)
		}
	}
}

// TestPepidServeRefusesBatchFlags: -serve returns a usage error naming each
// batch-only flag set with it, before any input is generated, instead of
// running without it — -trace wrote no file and -decoy searched no decoys.
// The same flags at their defaults, unset, do not count.
func TestPepidServeRefusesBatchFlags(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-serve", "-synth-db", "30", "-synth-queries", "2", "-p", "2", "-serve-duration", "0.05", "-o", os.DevNull}
	for _, extra := range [][]string{
		{"-algo", "b"},
		{"-algo", "a"},
		{"-decoy"},
		{"-fdr", "0.05"},
		{"-trace", filepath.Join(dir, "t.json")},
		{"-trace-summary"},
		{"-decoy", "-trace-summary"},
	} {
		sink := &bytes.Buffer{}
		err := run(append(append([]string(nil), base...), extra...), sink, sink)
		for _, a := range extra {
			if strings.HasPrefix(a, "-") && (err == nil || !strings.Contains(err.Error(), a)) {
				t.Errorf("%v: err = %v, want a usage error naming %s", extra, err, a)
			}
		}
		if strings.Contains(sink.String(), "generated") {
			t.Errorf("%v: input generated before the flag was refused:\n%s", extra, sink)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "t.json")); err == nil {
		t.Error("-serve -trace wrote a trace file")
	}
	if err := run(base, &bytes.Buffer{}, &bytes.Buffer{}); err != nil {
		t.Fatalf("-serve without batch-only flags: %v", err)
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
