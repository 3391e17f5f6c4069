package clockaudit_test

import (
	"testing"

	"pepscale/internal/analysis/analysistest"
	"pepscale/internal/analysis/clockaudit"
)

// TestSeededViolations runs the analyzer over the corpus: every write of the
// clock, a Stats counter or the trace log outside Rank.charge must be
// flagged, and charge itself, zero resets, events built field by field, the
// residency gauge and the allow directive must stay silent.
func TestSeededViolations(t *testing.T) {
	analysistest.Run(t, clockaudit.Analyzer, "testdata")
}

// TestAppliesTo pins the analyzer to the cluster package alone.
func TestAppliesTo(t *testing.T) {
	if !clockaudit.Analyzer.AppliesTo("pepscale/internal/cluster") {
		t.Error("AppliesTo(pepscale/internal/cluster) = false, want true")
	}
	for _, path := range []string{"pepscale/internal/core", "pepscale/internal/trace", "pepscale"} {
		if clockaudit.Analyzer.AppliesTo(path) {
			t.Errorf("AppliesTo(%q) = true, want false", path)
		}
	}
}
