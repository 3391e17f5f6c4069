package experiments

import (
	"fmt"
)

// Experiment names accepted by Run, in canonical order.
var Names = []string{
	"table1", "table2", "fig4", "table3", "table4",
	"fig1a", "fig1b", "masking", "residual", "validate",
	"subgroup", "space", "candidate", "quality", "trace",
	"volume", "elastic", "serve",
}

// Run executes the named experiments ("all" runs everything) in canonical
// order, reusing the Table II grid for Figure 4 when both are requested.
func (c *Config) Run(names []string) error {
	want := map[string]bool{}
	for _, n := range names {
		if n == "all" {
			for _, k := range Names {
				want[k] = true
			}
			continue
		}
		found := false
		for _, k := range Names {
			if k == n {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("experiments: unknown experiment %q (want one of %v or \"all\")", n, Names)
		}
		want[n] = true
	}
	var ordered []string
	for _, k := range Names {
		if want[k] {
			ordered = append(ordered, k)
		}
	}
	if len(ordered) == 0 {
		return fmt.Errorf("experiments: nothing to run")
	}

	c.printf("pepscale experiment harness — cost model: %s\n", costModelSummary(c.Cost))
	c.printf("queries: %d (drawn from a %d-sequence human-like database)\n", c.QueryCount, c.QueryDBSize)
	c.printf("database sizes: %v   processor counts: %v\n\n", c.DBSizes, c.Procs)

	var grid Grid
	for _, name := range ordered {
		var err error
		switch name {
		case "table1":
			_, err = c.Table1()
		case "table2":
			grid, _, err = c.Table2()
		case "fig4":
			_, _, err = c.Fig4(grid)
		case "table3":
			_, err = c.Table3()
		case "table4":
			_, err = c.Table4()
		case "fig1a":
			_, err = c.Fig1a()
		case "fig1b":
			_, err = c.Fig1b()
		case "masking":
			_, err = c.Masking()
		case "residual":
			_, err = c.Residual()
		case "validate":
			_, err = c.Validate()
		case "subgroup":
			_, err = c.SubGroup()
		case "space":
			_, err = c.Space()
		case "candidate":
			_, err = c.CandidateTransport()
		case "quality":
			_, err = c.Quality()
		case "trace":
			err = c.Trace()
		case "volume":
			_, err = c.Volume()
		case "elastic":
			_, err = c.Elastic()
		case "serve":
			_, err = c.Serve()
		}
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
	}
	return nil
}
