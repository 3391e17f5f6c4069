// Command pepvet is the repository's invariant multichecker: it loads the
// requested packages (default ./...) and applies the five repo-specific
// analyzers —
//
//	determinism  no wall-clock / global randomness / env reads / map-order
//	             iteration in the deterministic engine packages, directly
//	             or transitively through helpers in other packages
//	hotpath      no allocation-inducing constructs in //pepvet:hotpath
//	             functions
//	allocflow    no //pepvet:hotpath function calls a helper — however many
//	             frames down — that may allocate
//	ranksafety   //pepvet:perrank values never escape their owning rank
//	clockaudit   in internal/cluster only Rank.charge writes a rank's
//	             clock or Stats counters or appends to its trace log
//
// — plus the driver's own directive hygiene (reported under the pseudo-
// analyzer name "pepvet"), printing findings as file:line:col diagnostics
// and exiting nonzero if any survive //pepvet:allow suppression. `make
// lint` runs it over the whole tree; the tree is expected to come out
// clean.
//
// Output modes: the default is human-readable text; -json prints one JSON
// object per diagnostic (file, line, col, analyzer, message, allowed,
// reason) for tooling; -github prints GitHub Actions ::error workflow
// commands so CI findings annotate the PR diff.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pepscale/internal/analysis"
	"pepscale/internal/analysis/allocflow"
	"pepscale/internal/analysis/clockaudit"
	"pepscale/internal/analysis/determinism"
	"pepscale/internal/analysis/hotpath"
	"pepscale/internal/analysis/ranksafety"
)

// Analyzers is the suite pepvet applies, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.Analyzer,
		hotpath.Analyzer,
		allocflow.Analyzer,
		ranksafety.Analyzer,
		clockaudit.Analyzer,
	}
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

// jsonDiag is the -json wire shape, one object per line.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Allowed  bool   `json:"allowed"`
	Reason   string `json:"reason,omitempty"`
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("pepvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "change to `dir` before resolving package patterns")
	showAllowed := fs.Bool("show-allowed", false, "also print findings suppressed by //pepvet:allow, with their reasons")
	jsonOut := fs.Bool("json", false, "print one JSON object per diagnostic instead of text")
	githubOut := fs.Bool("github", false, "also print GitHub Actions ::error workflow commands for unsuppressed findings")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pepvet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range Analyzers() {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags := analysis.RunAnalyzers(pkgs, Analyzers())
	enc := json.NewEncoder(stdout)
	bad := 0
	for _, d := range diags {
		if d.Suppressed && !*showAllowed && !*jsonOut {
			continue
		}
		rel := relName(*dir, d.Pos.Filename)
		switch {
		case *jsonOut:
			// -json lists every diagnostic, suppressed included: the
			// allow-state field is what tooling keys on.
			enc.Encode(jsonDiag{
				File: rel, Line: d.Pos.Line, Col: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
				Allowed: d.Suppressed, Reason: d.Reason,
			})
		case d.Suppressed:
			fmt.Fprintf(stdout, "%s:%d:%d: allowed [%s]: %s (reason: %s)\n", rel, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message, d.Reason)
		default:
			fmt.Fprintf(stdout, "%s:%d:%d: %s [%s]\n", rel, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
		}
		if !d.Suppressed && *githubOut {
			// GitHub Actions workflow command; %0A etc. escapes per the
			// runner's command syntax.
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=pepvet %s::%s\n",
				rel, d.Pos.Line, d.Pos.Column, d.Analyzer, escapeGitHub(d.Message))
		}
	}
	for _, d := range diags {
		if !d.Suppressed {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "pepvet: %d finding(s)\n", bad)
		return 1
	}
	return 0
}

// escapeGitHub escapes a workflow-command message per the Actions runner
// rules (%, CR, LF in values; the title property additionally needs , and :
// but we only emit analyzer names there).
func escapeGitHub(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// relName renders a filename relative to the load root, keeping output
// stable across checkouts.
func relName(dir, name string) string {
	abs, err := filepath.Abs(dir)
	if err == nil {
		if rel, err := filepath.Rel(abs, name); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
			name = rel
		}
	}
	return name
}
