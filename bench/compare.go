package main

import (
	"fmt"
	"os"
	"text/tabwriter"
)

// Verdicts of compare.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// worsening returns how far b is from a in d's bad direction, as a share of
// a (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict judges run b of a metric against run a.
//
// An exact metric must be identical. Otherwise b is ok while its reported
// value is no worse than a's by more than the bound. Beyond the bound it is
// worse only when every sample of b is worse than every sample of a; if a
// itself produced a sample as bad as b's best, the difference is inside a's
// own spread and the row is unresolved.
func verdict(d metricDef, a, b sample) string {
	if d.Exact {
		if a.Value == b.Value {
			return verdictOK
		}
		return verdictWorse
	}
	if worsening(d, a.Value, b.Value) <= d.Bound {
		return verdictOK
	}
	aWorst, bBest := a.Max, b.Min
	if d.Better == "higher" {
		aWorst, bBest = a.Min, b.Max
	}
	if worsening(d, aWorst, bBest) > 0 {
		return verdictWorse
	}
	return verdictUnresolved
}

// compareMain prints one row per (workload, end-to-end metric) of two
// results.json files and returns the exit code: 1 when any row is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	var files [2]struct {
		Runs []*runRecord `json:"runs"`
	}
	for i, path := range args {
		if err := readJSON(path, &files[i]); err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
			return 2
		}
	}
	byName := map[string]*runRecord{}
	for _, r := range files[1].Runs {
		if r.Trace == 0 {
			byName[r.Workload] = r
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA [min–max]\tB [min–max]\tworse by\tbound\tverdict")
	worse := 0
	for _, a := range files[0].Runs {
		b := byName[a.Workload]
		if a.Trace != 0 || b == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := a.Metrics[d.Name], b.Metrics[d.Name]
			v := verdict(d, sa, sb)
			if v == verdictWorse {
				worse++
			}
			bound := fmt.Sprintf("%.0f%%", d.Bound*100)
			if d.Exact {
				bound = "exact"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g–%.6g]\t%.6g [%.6g–%.6g]\t%+.1f%%\t%s\t%s\n",
				a.Workload, d.Name, sa.Value, sa.Min, sa.Max, sb.Value, sb.Min, sb.Max,
				100*worsening(d, sa.Value, sb.Value), bound, v)
		}
	}
	tw.Flush()
	if worse > 0 {
		fmt.Printf("%d worse\n", worse)
		return 1
	}
	return 0
}
