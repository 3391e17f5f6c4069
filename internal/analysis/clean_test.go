package analysis_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pepscale/internal/analysis"
	"pepscale/internal/analysis/allocflow"
	"pepscale/internal/analysis/clockaudit"
	"pepscale/internal/analysis/determinism"
	"pepscale/internal/analysis/hotpath"
	"pepscale/internal/analysis/ranksafety"
)

// moduleRoot locates the repository root via the go tool.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" || gomod == "NUL" {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}

// fullSuite is the same analyzer set cmd/pepvet applies (kept in sync by
// TestSuiteMatchesPepvetCommand in cmd/pepvet).
func fullSuite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		hotpath.Analyzer,
		allocflow.Analyzer,
		ranksafety.Analyzer,
		clockaudit.Analyzer,
	}
}

// TestRepoIsPepvetClean is the meta-regression: the full five-analyzer pepvet
// suite over every repository package — internal, cmd, and examples trees
// alike — must produce no unsuppressed findings and no directive hygiene
// complaints (every //pepvet:allow justified AND engaged), the same contract
// `make lint` enforces. The deliberate allow sites must actually suppress
// something, proving the directives are load-bearing rather than dead
// comments.
func TestRepoIsPepvetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping whole-repo load")
	}
	pkgs, err := analysis.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatalf("loading repo packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	covered := map[string]bool{}
	for _, pkg := range pkgs {
		switch {
		case strings.Contains(pkg.Path, "/cmd/"):
			covered["cmd"] = true
		case strings.Contains(pkg.Path, "/examples/"):
			covered["examples"] = true
		}
	}
	for _, tree := range []string{"cmd", "examples"} {
		if !covered[tree] {
			t.Errorf("the ./... load covered no %s/... packages; the lint surface has silently shrunk", tree)
		}
	}

	diags := analysis.RunAnalyzers(pkgs, fullSuite())
	suppressed := 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
			t.Logf("allowed [%s] %s:%d: %s (reason: %s)", d.Analyzer, filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message, d.Reason)
			continue
		}
		if d.Analyzer == analysis.DriverName {
			t.Errorf("directive hygiene: %s:%d: %s", d.Pos.Filename, d.Pos.Line, d.Message)
			continue
		}
		t.Errorf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if suppressed == 0 {
		t.Error("expected at least one //pepvet:allow-suppressed finding in the tree; the directive machinery appears disengaged")
	}
}

// TestRepoAnnotationsPresent pins the annotation inventory: the hot-path
// kernels and per-rank types named in DESIGN.md must keep their markers, so
// a refactor cannot silently drop them out of analyzer coverage.
func TestRepoAnnotationsPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping whole-repo load")
	}
	root := moduleRoot(t)
	pkgs, err := analysis.Load(root,
		"./internal/core", "./internal/score", "./internal/topk", "./internal/cluster",
		"./internal/placement")
	if err != nil {
		t.Fatalf("loading annotated packages: %v", err)
	}
	marks, ok := ranksafety.Analyzer.Begin(pkgs).(*ranksafety.Marks)
	if !ok {
		t.Fatalf("ranksafety.Begin returned %T, want *ranksafety.Marks", ranksafety.Analyzer.Begin(pkgs))
	}
	marked := marks.PerRank
	for _, want := range []string{
		"pepscale/internal/score.scratch",
		"pepscale/internal/score.BatchQuery",
		"pepscale/internal/score.CandidatePrep",
		"pepscale/internal/core.scanState",
		"pepscale/internal/core.sweeper",
		"pepscale/internal/core.rgroup",
		"pepscale/internal/cluster.Rank",
		"pepscale/internal/placement.Scratch",
	} {
		if !marked[want] {
			t.Errorf("type %s has lost its //pepvet:perrank marker", want)
		}
	}
	// The block-owned type every rank reads at once: dropping the marker
	// would drop the immutable-after-publish check with it.
	if want := "pepscale/internal/core.blockIndex"; !marks.Shared[want] {
		t.Errorf("type %s has lost its //pepvet:shared marker", want)
	}
}

// TestSeededRegressionCaughtOnlyInterprocedurally plants the exact bug class
// the interprocedural layer was built for — a wall-clock read hidden three
// calls below an internal/core entry point, and an allocating helper under a
// //pepvet:hotpath function — in a throwaway module, then checks the pre-PR
// analyzer suite (direct-only determinism, intraprocedural hotpath,
// ranksafety) passes it cleanly while the current suite reports both.
func TestSeededRegressionCaughtOnlyInterprocedurally(t *testing.T) {
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
	write("internal/core/scan.go", `package core

import "fixture/internal/util"

//pepvet:hotpath
func scanCandidates(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum + util.Jitter(sum)
}

func stampScan() int64 { return util.Stamp() }
`)
	write("internal/util/util.go", `package util

import (
	"fmt"
	"time"
)

func Stamp() int64 { return stamp1() }

func stamp1() int64 { return stamp2() }

func stamp2() int64 { return time.Now().UnixNano() }

func Jitter(x float64) float64 {
	s := fmt.Sprintf("%.3f", x)
	return float64(len(s))
}
`)
	pkgs, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}

	oldSuite := []*analysis.Analyzer{determinism.NewDirectOnly(), hotpath.Analyzer, ranksafety.Analyzer}
	for _, d := range analysis.RunAnalyzers(pkgs, oldSuite) {
		if !d.Suppressed {
			t.Errorf("pre-PR suite flagged %s:%d [%s] %s — the fixture must be invisible intraprocedurally", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
	}

	caught := map[string]bool{}
	for _, d := range analysis.RunAnalyzers(pkgs, fullSuite()) {
		if !d.Suppressed {
			caught[d.Analyzer] = true
		}
	}
	if !caught["determinism"] {
		t.Error("full suite missed the helper-hidden time.Now three calls below internal/core")
	}
	if !caught["allocflow"] {
		t.Error("full suite missed the allocating helper under the //pepvet:hotpath function")
	}
}
