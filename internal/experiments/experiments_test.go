package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pepscale/internal/digest"
)

// tiny returns a minimal configuration so every experiment runs in
// milliseconds.
func tiny(buf *bytes.Buffer) *Config {
	c := Quick(buf)
	c.QueryCount = 8
	c.QueryDBSize = 120
	c.DBSizes = []int{200, 400}
	c.Procs = []int{1, 2, 4}
	c.Table4Size = 200
	c.Table4Procs = []int{1, 2}
	c.SubGroupSize = 200
	c.SubGroupGroups = []int{1, 2}
	return c
}

func TestEveryExperimentRuns(t *testing.T) {
	var buf bytes.Buffer
	c := tiny(&buf)
	if err := c.Run([]string{"all"}); err != nil {
		t.Fatalf("Run(all): %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table I ", "Table II ", "Table III ", "Table IV ",
		"Figure 1a", "Figure 1b", "Figure 4a", "Figure 4b",
		"Masking ablation", "Residual communication", "Validation",
		"Sub-group extension", "Space —", "Candidate transport", "Quality —",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "MISMATCH") {
		t.Error("validation experiment reported a mismatch")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	c := tiny(&buf)
	if err := c.Run([]string{"nope"}); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := c.Run(nil); err == nil {
		t.Error("empty experiment list should error")
	}
}

func TestTable2GridShape(t *testing.T) {
	var buf bytes.Buffer
	c := tiny(&buf)
	grid, tbl, err := c.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != len(c.DBSizes) {
		t.Fatalf("grid rows: %d", len(grid))
	}
	for _, n := range c.DBSizes {
		row := grid[n]
		if len(row) != len(c.Procs) {
			t.Fatalf("grid cols for %d: %d", n, len(row))
		}
		// Run-time falls with p and larger databases take longer at p=1.
		if row[4] >= row[1] {
			t.Errorf("n=%d: p=4 (%v) not faster than p=1 (%v)", n, row[4], row[1])
		}
	}
	if grid[c.DBSizes[1]][1] <= grid[c.DBSizes[0]][1] {
		t.Error("run-time should grow with database size")
	}
	if len(tbl.Rows) != len(c.DBSizes) {
		t.Errorf("table rows: %d", len(tbl.Rows))
	}
}

func TestFig4FromGrid(t *testing.T) {
	var buf bytes.Buffer
	c := tiny(&buf)
	grid := Grid{
		200: {1: 10, 2: 5.2, 4: 2.8},
		400: {1: 20, 2: 10.4, 4: 5.5},
	}
	sp, eff, err := c.Fig4(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Rows) != 2 || len(eff.Rows) != 2 {
		t.Fatalf("figure rows: %d, %d", len(sp.Rows), len(eff.Rows))
	}
	if sp.Rows[0][1] != "1.00" {
		t.Errorf("speedup at p=1 = %q", sp.Rows[0][1])
	}
	if !strings.Contains(eff.Rows[0][2], "%") {
		t.Errorf("efficiency cell: %q", eff.Rows[0][2])
	}
}

func TestWorkloadCaching(t *testing.T) {
	var buf bytes.Buffer
	c := tiny(&buf)
	w1, err := c.WorkloadFor(200)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := c.WorkloadFor(200)
	if err != nil {
		t.Fatal(err)
	}
	if &w1.DB[0] != &w2.DB[0] {
		t.Error("database not cached across calls")
	}
	if w1.Queries[0] != w2.Queries[0] {
		t.Error("queries not cached across calls")
	}
}

func TestDigestParamsFingerprint(t *testing.T) {
	a := digestParamsFingerprint(digest.DefaultParams())
	b := digest.DefaultParams()
	b.SemiTryptic = true
	if a == digestParamsFingerprint(b) {
		t.Error("fingerprint should distinguish semi-tryptic")
	}
}

// digestParamsFingerprint is referenced by tests to assert survey scopes
// differ only in the intended knobs.
func digestParamsFingerprint(p digest.Params) string {
	return fmt.Sprintf("%d/%d-%d/%g-%g/%v/%d", p.MissedCleavages, p.MinLength, p.MaxLength, p.MinMass, p.MaxMass, p.SemiTryptic, len(p.Mods))
}
