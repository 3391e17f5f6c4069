package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// TestCleanTreeExitsZero runs the multichecker exactly as `make lint` does
// and requires a clean exit on the real tree.
func TestCleanTreeExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping whole-repo run")
	}
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"-C", repoRoot(t), "./..."})
	if code != 0 {
		t.Fatalf("pepvet exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run printed findings:\n%s", stdout.String())
	}
}

// TestShowAllowedListsSuppressions checks -show-allowed surfaces the
// recorded justifications without failing the run.
func TestShowAllowedListsSuppressions(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping whole-repo run")
	}
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"-C", repoRoot(t), "-show-allowed", "./..."})
	if code != 0 {
		t.Fatalf("pepvet exit = %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "reason:") {
		t.Errorf("-show-allowed printed no suppressed findings:\n%s", stdout.String())
	}
}

// TestBadPatternExitsTwo pins the usage-error exit code.
func TestBadPatternExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-C", t.TempDir(), "./..."}); code != 2 {
		t.Fatalf("pepvet on an empty directory: exit = %d, want 2", code)
	}
}

// writeFixture lays down a throwaway module with one seeded determinism
// violation and one allowed one, so the output-mode tests see deterministic
// diagnostics without depending on the real tree's findings.
func writeFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, content string) {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fixture\n\ngo 1.22\n")
	write("internal/core/core.go", `package core

import "time"

func stamp() int64 {
	return time.Now().UnixNano()
}

func allowedStamp(t0 time.Time) time.Duration {
	//pepvet:allow determinism fixture justification
	return time.Since(t0)
}
`)
	return dir
}

// TestJSONOutput pins the -json wire shape: one object per line covering
// every diagnostic — suppressed included, with the allow-state and reason —
// and the run still exits 1 while unsuppressed findings remain.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"-C", writeFixture(t), "-json", "./..."})
	if code != 1 {
		t.Fatalf("pepvet exit = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	var got []jsonDiag
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var d jsonDiag
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("non-JSON output line %q: %v", line, err)
		}
		got = append(got, d)
	}
	if len(got) != 2 {
		t.Fatalf("diagnostics = %+v, want exactly 2 (one flagged, one allowed)", got)
	}
	flagged, allowed := got[0], got[1]
	if flagged.Allowed {
		flagged, allowed = allowed, flagged
	}
	if flagged.Analyzer != "determinism" || !strings.Contains(flagged.Message, "time.Now") ||
		flagged.File != filepath.Join("internal", "core", "core.go") || flagged.Line == 0 || flagged.Col == 0 || flagged.Reason != "" {
		t.Errorf("flagged diagnostic = %+v, want determinism time.Now at internal/core/core.go with position and no reason", flagged)
	}
	if !allowed.Allowed || allowed.Reason != "fixture justification" || !strings.Contains(allowed.Message, "time.Since") {
		t.Errorf("allowed diagnostic = %+v, want allowed=true with the directive's reason", allowed)
	}
}

// TestGitHubOutput pins the -github mode: every unsuppressed finding is
// followed by a ::error workflow command carrying file, line, col, and the
// analyzer in the title, so CI annotates the PR diff.
func TestGitHubOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"-C", writeFixture(t), "-github", "./..."})
	if code != 1 {
		t.Fatalf("pepvet exit = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	want := "::error file=" + filepath.Join("internal", "core", "core.go") + ",line="
	if !strings.Contains(out, want) || !strings.Contains(out, ",title=pepvet determinism::call to time.Now") {
		t.Errorf("-github output missing the workflow command:\n%s", out)
	}
	if strings.Contains(out, "time.Since") {
		t.Errorf("-github output includes a suppressed finding:\n%s", out)
	}
}

// TestEscapeGitHub pins the workflow-command escaping rules for message
// data: percent, CR, and LF must be encoded or the runner truncates the
// annotation.
func TestEscapeGitHub(t *testing.T) {
	if got, want := escapeGitHub("50% done\r\nnext"), "50%25 done%0D%0Anext"; got != want {
		t.Errorf("escapeGitHub = %q, want %q", got, want)
	}
}

func TestAnalyzerNamesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v missing name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

// TestSuiteMatchesPepvetCommand pins the shipped suite: the meta-tests in
// internal/analysis mirror this list, and dropping an analyzer from the
// command must be a deliberate, visible change.
func TestSuiteMatchesPepvetCommand(t *testing.T) {
	want := []string{"determinism", "hotpath", "allocflow", "ranksafety", "clockaudit"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
	}
}
