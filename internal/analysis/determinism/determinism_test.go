package determinism_test

import (
	"strings"
	"testing"

	"pepscale/internal/analysis"
	"pepscale/internal/analysis/analysistest"
	"pepscale/internal/analysis/determinism"
)

// TestSeededViolations runs the analyzer over the corpus: every planted
// wall-clock, randomness, environment, and map-order violation must be
// caught, the sanctioned patterns (seeded sources, count-only ranges) must
// stay silent, and //pepvet:allow must suppress exactly the annotated line.
func TestSeededViolations(t *testing.T) {
	analysistest.Run(t, determinism.Analyzer, "testdata")
}

// TestDirectOnlyMissesTransitiveTaint pins why the interprocedural layer
// exists: the pre-v2 analyzer (direct source checks only) sees nothing wrong
// with the corpus's main package calls into the helper package, while the
// full analyzer reports every hidden chain. A regression that reintroduces
// helper-hidden nondeterminism is caught only by the v2 summaries.
func TestDirectOnlyMissesTransitiveTaint(t *testing.T) {
	pkgs, err := analysis.LoadCorpus("testdata")
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	scoped := func(a *analysis.Analyzer) *analysis.Analyzer {
		b := *a
		mainPath := pkgs[0].Path
		b.AppliesTo = func(pkgPath string) bool { return pkgPath == mainPath }
		return &b
	}
	count := func(a *analysis.Analyzer) int {
		n := 0
		for _, d := range analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{a}) {
			if !d.Suppressed && d.Analyzer == a.Name && strings.Contains(d.Message, "transitively reaches") {
				n++
			}
		}
		return n
	}
	if got := count(scoped(determinism.NewDirectOnly())); got != 0 {
		t.Errorf("direct-only analyzer reported %d transitive findings, want 0", got)
	}
	if got := count(scoped(determinism.Analyzer)); got < 3 {
		t.Errorf("full analyzer reported %d transitive findings, want at least 3 (time.Now, rand.Intn, os.Getenv chains)", got)
	}
}

// TestAppliesTo pins the deterministic package set: the analyzer must cover
// the engine packages and nothing else.
func TestAppliesTo(t *testing.T) {
	for _, path := range []string{
		"pepscale/internal/cluster",
		"pepscale/internal/core",
		"pepscale/internal/digest",
		"pepscale/internal/placement",
		"pepscale/internal/score",
		"pepscale/internal/serve",
		"pepscale/internal/spectrum",
		"pepscale/internal/synth",
		"pepscale/internal/wire",
	} {
		if !determinism.Analyzer.AppliesTo(path) {
			t.Errorf("AppliesTo(%q) = false, want true", path)
		}
	}
	for _, path := range []string{
		"pepscale",
		"pepscale/internal/topk",
		"pepscale/internal/report",
		"pepscale/internal/wire/wiretest",
		"pepscale/cmd/paperbench",
		"other/internal/coredump",
	} {
		if determinism.Analyzer.AppliesTo(path) {
			t.Errorf("AppliesTo(%q) = true, want false", path)
		}
	}
}
