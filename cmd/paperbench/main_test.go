package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPaperbenchQuickSingleExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scale", "quick", "-exp", "table1,fig1a", "-queries", "6"}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "Table I ") || !strings.Contains(out, "Figure 1a") {
		t.Errorf("missing tables in output:\n%s", out)
	}
}

func TestPaperbenchCSV(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scale", "quick", "-exp", "table1", "-csv"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "CSV:") {
		t.Error("CSV rendition missing")
	}
}

func TestPaperbenchErrors(t *testing.T) {
	sink := &bytes.Buffer{}
	if err := run([]string{"-scale", "galactic"}, sink, sink); err == nil {
		t.Error("unknown scale should error")
	}
	if err := run([]string{"-exp", "nonsense"}, sink, sink); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestPaperbenchProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scale", "quick", "-exp", "table1", "-queries", "4",
		"-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (%v)", filepath.Base(p), err)
		}
	}
}
