package experiments

import (
	"fmt"
	"math"

	"pepscale/internal/chem"
	"pepscale/internal/report"
	"pepscale/internal/synth"
)

// Fig1a reproduces Figure 1a: the GenBank nucleotide-database growth that
// motivates parallel search (exponential, ~18-month doubling).
func (c *Config) Fig1a() (*report.Table, error) {
	points := synth.GenBankGrowth(1988, 2008)
	t := report.NewTable("Figure 1a — modelled GenBank growth", "Year", "Base pairs", "Growth vs 1990")
	var anchor float64
	for _, pt := range points {
		if pt.Year == 1990 {
			anchor = pt.BasePairs
		}
	}
	for _, pt := range points {
		if pt.Year%2 != 0 {
			continue
		}
		t.Add(fmt.Sprintf("%d", pt.Year),
			fmt.Sprintf("%.2e", pt.BasePairs),
			fmt.Sprintf("%.1fx", pt.BasePairs/anchor))
	}
	c.printTable(t)
	return t, nil
}

// Fig1b reproduces Figure 1b: the number of candidate peptides that must
// be evaluated per spectrum as the source complexity grows — a known
// protein family, a single genome, or an environmental microbial
// community, each optionally with PTMs.
func (c *Config) Fig1b() (*report.Table, error) {
	truths, err := c.queries()
	if err != nil {
		return nil, err
	}
	masses := make([]float64, len(truths))
	for i, tr := range truths {
		masses[i] = tr.Spectrum.ParentMass()
	}

	community, _ := c.database(8000)
	genome := community[:1000]
	family := community[:50]

	base := c.Opt.Digest
	withPTMs := base
	withPTMs.Mods = []chem.Mod{chem.OxidationM, chem.PhosphoSTY}
	withPTMs.MaxModsPerPeptide = 2

	scopes := []synth.SurveyScope{
		{Name: "protein family", DB: family, Params: base},
		{Name: "protein family + PTMs", DB: family, Params: withPTMs},
		{Name: "single genome", DB: genome, Params: base},
		{Name: "single genome + PTMs", DB: genome, Params: withPTMs},
		{Name: "microbial community", DB: community, Params: base},
		{Name: "microbial community + PTMs", DB: community, Params: withPTMs},
	}
	rows, err := synth.CandidateSurvey(scopes, masses, c.Opt.Tol)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 1b — candidate peptides per spectrum by source complexity",
		"Source", "Sequences", "Mean candidates/query", "Max candidates/query", "Indexed peptides")
	for _, r := range rows {
		t.Add(r.Name,
			report.Count(int64(r.Sequences)),
			fmt.Sprintf("%.1f", r.MeanPerQuery),
			report.Count(int64(r.MaxPerQuery)),
			report.Count(int64(r.TotalIndexLen)))
	}
	c.printTable(t)
	return t, nil
}

// Fig4 reproduces Figures 4a and 4b: real speedup and parallel efficiency
// of Algorithm A, derived from the Table II grid. Sizes lacking a p=1
// measurement follow the paper's procedure (relative to the smallest
// measured p, scaled by the reference speedup).
func (c *Config) Fig4(grid Grid) (*report.Table, *report.Table, error) {
	if grid == nil {
		var err error
		grid, _, err = c.Table2()
		if err != nil {
			return nil, nil, err
		}
	}
	headers := []string{"DB size (n)"}
	for _, p := range c.Procs {
		headers = append(headers, fmt.Sprintf("p=%d", p))
	}
	ts := report.NewTable("Figure 4a — real speedup of Algorithm A", headers...)
	te := report.NewTable("Figure 4b — parallel efficiency of Algorithm A", headers...)
	for _, n := range c.DBSizes {
		times := grid[n]
		if times == nil {
			continue
		}
		sp := report.Speedup(times, 1, 1)
		eff := report.Efficiency(sp)
		rs := []string{report.SizeLabel(n)}
		re := []string{report.SizeLabel(n)}
		for _, p := range c.Procs {
			if s, ok := sp[p]; ok {
				rs = append(rs, fmt.Sprintf("%.2f", s))
				re = append(re, fmt.Sprintf("%.1f%%", eff[p]*100))
			} else {
				rs = append(rs, "-")
				re = append(re, "-")
			}
		}
		ts.Add(rs...)
		te.Add(re...)
	}
	c.printTable(ts)
	c.printTable(te)

	// ASCII rendition of Figure 4a: speedup vs p, log₂ axes — ideal
	// scaling is the straight diagonal.
	xs := make([]float64, len(c.Procs))
	for i, p := range c.Procs {
		xs[i] = math.Log2(float64(p))
	}
	chart := report.NewChart("Figure 4a (plot) — speedup vs processors (log2/log2)", xs)
	chart.XLabel = "log2(p)"
	chart.YLabel = "speedup"
	chart.LogY = true
	ideal := make([]float64, len(c.Procs))
	for i, p := range c.Procs {
		ideal[i] = float64(p)
	}
	chart.AddSeries("ideal", ideal)
	largest := c.DBSizes[len(c.DBSizes)-1]
	if times := grid[largest]; times != nil {
		sp := report.Speedup(times, 1, 1)
		ys := make([]float64, len(c.Procs))
		for i, p := range c.Procs {
			if v, ok := sp[p]; ok {
				ys[i] = v
			} else {
				ys[i] = math.NaN()
			}
		}
		chart.AddSeries(report.SizeLabel(largest), ys)
	}
	c.printf("%s\n", chart)
	return ts, te, nil
}
