// Command paperbench regenerates the tables and figures of the paper's
// evaluation section on the virtual cluster and prints them in the paper's
// layout.
//
// Usage:
//
//	paperbench [-exp all|table1|table2|fig4|table3|table4|fig1a|fig1b|
//	            masking|residual|validate|subgroup|space|candidate|trace|
//	            volume|elastic[,...]]
//	           [-scale quick|default|full] [-queries N] [-csv]
//	           [-trace run.json]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Absolute run-times are virtual seconds under the calibrated gigabit
// cost model; the shapes (scaling, crossovers, ablation ratios) are the
// reproduction targets. See EXPERIMENTS.md for the paper-vs-measured
// comparison.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pepscale/internal/experiments"
	"pepscale/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(1)
	}
}

// run executes the harness against explicit argument and output streams
// (the testable entry point).
func run(args []string, stdout, stderr io.Writer) (err error) {
	flag := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	flag.SetOutput(stderr)
	var (
		exp     = flag.String("exp", "all", "comma-separated experiments to run, or \"all\": "+strings.Join(experiments.Names, ", "))
		scale   = flag.String("scale", "default", "problem scale: quick, default, or full")
		queries = flag.Int("queries", 0, "override query-spectra count")
		tau     = flag.Int("tau", 0, "override tau (top hits per query)")
		csv     = flag.Bool("csv", false, "also emit CSV after each table")
		trpath  = flag.String("trace", "", "with -exp trace: also write the Chrome trace_event JSON here")
	)
	profFlags := prof.Register(flag)
	if err := flag.Parse(args); err != nil {
		return err
	}
	stopProf, err := profFlags.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); err == nil {
			err = perr
		}
	}()

	var cfg *experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.Quick(stdout)
	case "default":
		cfg = experiments.Default(stdout)
	case "full":
		cfg = experiments.Default(stdout)
		cfg.QueryCount = 192
		cfg.DBSizes = []int{1000, 2000, 4000, 8000, 16000, 32000, 64000}
		cfg.Table4Size = 20000 // the paper's Table IV size
	default:
		return fmt.Errorf("unknown scale %q (want quick, default, or full)", *scale)
	}
	if *queries > 0 {
		cfg.QueryCount = *queries
	}
	if *tau > 0 {
		cfg.Opt.Tau = *tau
	}
	cfg.CSV = *csv
	cfg.TracePath = *trpath

	return cfg.Run(strings.Split(*exp, ","))
}
