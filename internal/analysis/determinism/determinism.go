// Package determinism implements the pepvet analyzer that keeps
// nondeterminism out of the packages whose outputs must be bit-identical
// across runs, hosts, and GOMAXPROCS settings: the engine scan, the scoring
// models, the digest and fragment indexes, the synthetic data generators,
// the blob codec, and the virtual cluster whose clocks the experiments
// report.
//
// Within those packages it forbids
//
//   - wall-clock reads (time.Now, time.Since, time.Until) — virtual time is
//     the only clock an engine may observe;
//   - the process-global math/rand generators — randomness must come from an
//     explicitly seeded source so every rank draws a reproducible stream;
//   - environment reads (os.Getenv, os.LookupEnv, os.Environ) — results must
//     be a function of the inputs alone;
//   - ranging over a map with the key or value bound — iteration order is
//     randomized and can leak into hits, statistics, or virtual time.
//
// Since v2 the check is interprocedural: per-function taint summaries are
// propagated bottom-up over the call-graph SCCs, so a call from a blessed
// package into any other first-party package that transitively reaches one
// of the sources above is flagged at the call site, with the witness chain
// in the message. Inside the blessed packages themselves the direct checks
// still fire at the source, which keeps diagnostics on the offending line;
// the transitive check only reports calls whose callee lives outside the
// blessed set (where the source itself produces no diagnostic). Calls
// through function values and interfaces carry no edge and are not tracked.
//
// A benign occurrence (for example a map range whose keys are sorted before
// any order-dependent use) is suppressed with
// //pepvet:allow determinism <reason> — at the source line inside a blessed
// package, or at the source line of a helper to cut propagation into every
// caller, or at the blessed call site to accept one call chain.
package determinism

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"pepscale/internal/analysis"
)

// Packages lists the import-path suffixes of the deterministic packages the
// analyzer applies to when run by the pepvet driver.
var Packages = []string{
	"internal/ckpt",
	"internal/cluster",
	"internal/core",
	"internal/digest",
	"internal/fragidx",
	"internal/placement",
	"internal/score",
	"internal/serve",
	"internal/spectrum",
	"internal/synth",
	"internal/trace",
	"internal/wire",
}

const name = "determinism"

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc:  "forbid wall-clock, global randomness, environment reads, and map-order iteration — direct or through helpers — in the deterministic engine packages",
	AppliesTo: func(path string) bool {
		for _, s := range Packages {
			if path == s || strings.HasSuffix(path, "/"+s) {
				return true
			}
		}
		return false
	},
	BeginIPA: begin,
	Run:      run,
}

// NewDirectOnly returns the pre-v2 form of the analyzer: direct source
// checks without taint propagation. It exists so tests can pin that the
// interprocedural layer catches regressions the intraprocedural analyzer
// provably cannot.
func NewDirectOnly() *analysis.Analyzer {
	a := *Analyzer
	a.BeginIPA = nil
	return &a
}

// A taintStep is one function's summary entry: the lexically first
// nondeterminism source the function reaches, with the next hop toward it.
type taintStep struct {
	// short names the source, e.g. "time.Now" or "range over map".
	short string
	// via is the callee the taint flows through; nil when the source is in
	// the function's own body.
	via *types.Func
}

// taintFacts is the analyzer's Pass.Global: may-reach summaries for every
// function declared outside the blessed packages.
type taintFacts struct {
	reach map[*types.Func]*taintStep
}

// begin computes the taint summaries bottom-up over the call-graph SCCs.
// Functions in blessed packages are cut points: their bodies are checked
// directly by run, so they contribute no summary and taint never flows
// through them — a chain is reported exactly once, at the first blessed
// call site that leaves the blessed set.
func begin(a *analysis.Analyzer, ipa *analysis.IPA, pkgs []*analysis.Package) any {
	blessed := func(n *analysis.FuncNode) bool {
		return a.AppliesTo != nil && a.AppliesTo(n.Pkg.Path)
	}
	facts := &taintFacts{reach: make(map[*types.Func]*taintStep)}
	for _, scc := range ipa.SCCs() {
		// Mutual recursion: a member may call a later member, so iterate the
		// component to a fixpoint (each pass can only add summaries, and a
		// summary is never rewritten, so via chains stay acyclic).
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				if blessed(n) || facts.reach[n.Obj] != nil {
					continue
				}
				if step := directSource(ipa, n); step != nil {
					facts.reach[n.Obj] = step
					changed = true
					continue
				}
				for _, call := range n.Calls {
					callee := ipa.Node(call.Callee)
					if callee == nil || blessed(callee) || facts.reach[call.Callee] == nil {
						continue
					}
					pos := n.Pkg.Fset.Position(call.Site.Pos())
					if ipa.Allowed(name, pos) {
						continue
					}
					facts.reach[n.Obj] = &taintStep{short: facts.reach[call.Callee].short, via: call.Callee}
					changed = true
					break
				}
			}
		}
	}
	return facts
}

// directSource returns the first direct nondeterminism source in n's body,
// skipping sources suppressed by a reasoned allow at the source line.
func directSource(ipa *analysis.IPA, n *analysis.FuncNode) *taintStep {
	var step *taintStep
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if step != nil {
			return false
		}
		var short string
		switch node := node.(type) {
		case *ast.CallExpr:
			short, _ = classifyCall(n.Pkg.Info, node)
		case *ast.RangeStmt:
			if isKeyedMapRange(n.Pkg.Info, node) {
				short = "map-order iteration"
			}
		}
		if short == "" {
			return true
		}
		if ipa.Allowed(name, n.Pkg.Fset.Position(node.Pos())) {
			return true
		}
		step = &taintStep{short: short}
		return false
	})
	return step
}

func run(pass *analysis.Pass) {
	facts, _ := pass.Global.(*taintFacts)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
				if facts != nil {
					checkTransitive(pass, facts, n)
				}
			case *ast.RangeStmt:
				checkRange(pass, n)
			}
			return true
		})
	}
}

// classifyCall recognizes direct calls to nondeterministic standard-library
// functions, returning a short source name and the full diagnostic message.
func classifyCall(info *types.Info, call *ast.CallExpr) (short, msg string) {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", "" // methods (e.g. (*rand.Rand).Intn on a seeded source) are fine
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return "time." + name,
				fmt.Sprintf("call to time.%s: deterministic packages must use the virtual clock, never wall-clock time", name)
		}
	case "math/rand", "math/rand/v2":
		// Constructors (rand.New, rand.NewSource, ...) build explicitly
		// seeded sources and are the sanctioned replacement.
		if !strings.HasPrefix(name, "New") {
			return fmt.Sprintf("global %s.%s", fn.Pkg().Path(), name),
				fmt.Sprintf("call to global %s.%s: draw from an explicitly seeded *rand.Rand so every rank's stream is reproducible", fn.Pkg().Path(), name)
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			return "os." + name,
				fmt.Sprintf("call to os.%s: the environment must not influence a deterministic compute path", name)
		}
	}
	return "", ""
}

// isKeyedMapRange reports a range over a map with the key or value bound. A
// bare `for range m` observes only len(m) and is deterministic.
func isKeyedMapRange(info *types.Info, n *ast.RangeStmt) bool {
	if n.Key == nil && n.Value == nil {
		return false
	}
	t := info.TypeOf(n.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkCall flags calls to nondeterministic standard-library functions.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	if _, msg := classifyCall(pass.TypesInfo, call); msg != "" {
		pass.Reportf(call.Pos(), "%s", msg)
	}
}

// checkTransitive flags calls out of the blessed set whose callee's summary
// reaches a nondeterminism source.
func checkTransitive(pass *analysis.Pass, facts *taintFacts, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	step := facts.reach[fn]
	if step == nil {
		return
	}
	pass.Reportf(call.Pos(), "call to %s transitively reaches %s (%s); deterministic packages must not depend on it",
		analysis.FuncDisplayName(fn), step.short, witnessChain(facts, fn, step))
}

// witnessChain renders the taint path callee → ... → source.
func witnessChain(facts *taintFacts, fn *types.Func, step *taintStep) string {
	var b strings.Builder
	b.WriteString(analysis.FuncDisplayName(fn))
	for depth := 0; step.via != nil && depth < 10; depth++ {
		b.WriteString(" → ")
		b.WriteString(analysis.FuncDisplayName(step.via))
		next := facts.reach[step.via]
		if next == nil {
			break
		}
		step = next
	}
	b.WriteString(" → ")
	b.WriteString(step.short)
	return b.String()
}

// checkRange flags map iteration whose order can escape into results.
func checkRange(pass *analysis.Pass, n *ast.RangeStmt) {
	if !isKeyedMapRange(pass.TypesInfo, n) {
		return
	}
	t := pass.TypeOf(n.X)
	pass.Reportf(n.Pos(), "range over map %s: iteration order is nondeterministic and may leak into hits, stats, or virtual time; iterate sorted keys instead", types.TypeString(t, pass.Qualifier()))
}
