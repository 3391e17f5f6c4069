// Package clockaudit implements the pepvet analyzer that keeps the virtual
// machine's accounting on one path. Inside internal/cluster a rank's clock
// and Stats counters change only in Rank.charge, which adds an event's
// delta to Stats and logs that same event, so a trace folds to Stats by
// construction. Outside a method charge on Rank the analyzer reports a
// write of a Rank's clock or whole Stats, a write of a Stats counter that
// comes from its embedded StatDelta (promoted, s.Messages++, or explicit,
// s.StatDelta.Messages++), and a call of RankLog.Append.
//
// Zero assignments are exempt (Machine.Reset rewinds a rank without
// charging an interval), and so are the memory gauges Stats carries beside
// the delta and any StatDelta not reached through a Stats — the event a
// primitive builds before it charges it. Matching is by type name, which
// keeps the corpus self-contained. Suppress with
// //pepvet:allow clockaudit <reason> on the write's line.
package clockaudit

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"pepscale/internal/analysis"
)

// Analyzer is the single-writer accounting checker.
var Analyzer = &analysis.Analyzer{
	Name: "clockaudit",
	Doc:  "require every virtual-clock, Stats-counter or trace-log write in internal/cluster to go through Rank.charge",
	AppliesTo: func(path string) bool {
		return path == "internal/cluster" || strings.HasSuffix(path, "/internal/cluster")
	},
	Run: run,
}

func run(pass *analysis.Pass) {
	info := pass.TypesInfo
	write := func(lhs ast.Expr) {
		if t := target(info, lhs); t != "" {
			pass.Reportf(lhs.Pos(), "%s is written outside Rank.charge; charge the event that carries it so the trace and Stats stay one write", t)
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isCharge(info, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) && isZero(info, n.Rhs[i]) {
							continue // a reset, not a charge
						}
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.CallExpr:
					if fn := analysis.CalleeFunc(info, n); fn != nil && fn.Name() == "Append" {
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil && typeName(recv.Type()) == "RankLog" {
							pass.Reportf(n.Pos(), "RankLog.Append is called outside Rank.charge; log an event only by charging it")
						}
					}
				}
				return true
			})
		}
	}
}

// isCharge reports whether fd is the one writer: a method charge on Rank.
func isCharge(info *types.Info, fd *ast.FuncDecl) bool {
	return fd.Name.Name == "charge" && fd.Recv != nil && len(fd.Recv.List) == 1 &&
		typeName(info.TypeOf(fd.Recv.List[0].Type)) == "Rank"
}

// target names the accounting state lhs writes ("Rank.clock",
// "Stats.Messages", "Stats.StatDelta.Messages"), or returns "".
func target(info *types.Info, lhs ast.Expr) string {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	field := sel.Sel.Name
	switch typeName(info.TypeOf(sel.X)) {
	case "Rank":
		if field == "clock" || typeName(info.TypeOf(sel)) == "Stats" {
			return "Rank." + field
		}
	case "Stats":
		if field == "StatDelta" || promotedFromDelta(info, sel) {
			return "Stats." + field
		}
	case "StatDelta":
		if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && typeName(info.TypeOf(inner.X)) == "Stats" {
			return "Stats." + inner.Sel.Name + "." + field
		}
	}
	return ""
}

// promotedFromDelta reports whether sel selects a field Stats promotes
// from its embedded StatDelta.
func promotedFromDelta(info *types.Info, sel *ast.SelectorExpr) bool {
	s := info.Selections[sel]
	if s == nil || len(s.Index()) < 2 {
		return false
	}
	st, ok := deref(s.Recv()).Underlying().(*types.Struct)
	return ok && st.Field(s.Index()[0]).Name() == "StatDelta"
}

// isZero reports whether rhs is a constant zero or an empty composite
// literal.
func isZero(info *types.Info, rhs ast.Expr) bool {
	if lit, ok := ast.Unparen(rhs).(*ast.CompositeLit); ok {
		return len(lit.Elts) == 0
	}
	tv, ok := info.Types[rhs]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

// typeName returns the name of t's (pointer-dereferenced) named type, or "".
func typeName(t types.Type) string {
	if n, ok := deref(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
