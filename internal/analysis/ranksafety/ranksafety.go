// Package ranksafety implements the pepvet analyzer that enforces the
// rank-ownership contract. Types annotated
//
//	//pepvet:perrank
//
// (Scorer scratch, score.BatchQuery, score.CandidatePrep, core's scanState,
// cluster.Rank) are mutable state owned by exactly one virtual rank: sharing
// an instance across goroutines breaks both memory safety and the
// determinism of per-rank execution the paper's Algorithms A/B assume. The
// analyzer rejects the three escape routes:
//
//   - storing a per-rank value (or a pointer/slice/array/chan/map of one) in
//     a package-level variable — it would outlive and outspan its rank;
//   - sending one on a channel — channel transport hands it to another
//     goroutine;
//   - handing one to a `go` statement, as an argument or a captured
//     variable — the new goroutine is not the owning rank.
//
// A deliberate ownership transfer (for example the machine handing each Rank
// to the single goroutine that runs its body) is suppressed with
// //pepvet:allow ranksafety <reason>.
//
// The opposite contract has its own marker. Types annotated
//
//	//pepvet:shared
//
// (fragidx.Index, fragidx.Tier, core's blockIndex) are block-owned: every
// rank that scans the block reads the same instance at once, which is sound
// only because the value is immutable once published. The analyzer accepts
// such a type anywhere a per-rank type would be rejected, and in exchange
// rejects what would break the contract:
//
//   - a write to one of its fields (assignment, ++/--, or delete/clear/copy
//     into it, through any index/slice/deref chain) anywhere except on a
//     local still under construction (declared in the same function from a
//     composite literal, new, or a bare var) or inside the function literal
//     of a sync.Once.Do call — so a mutable counter or cache field added to
//     a shared type later is flagged at its first write;
//   - a field of a shared struct that holds per-rank state.
//
// Synchronisation cells (sync and sync/atomic values, and structs made of
// them) are written through their methods, not assignments, and so need no
// exemption; a field the type guards with its own mutex is recorded with
// //pepvet:allow ranksafety <which lock>.
package ranksafety

import (
	"go/ast"
	"go/token"
	"go/types"

	"pepscale/internal/analysis"
)

// Analyzer is the per-rank ownership checker.
var Analyzer = &analysis.Analyzer{
	Name:  "ranksafety",
	Doc:   "keep //pepvet:perrank values off package variables, channels, and foreign goroutines",
	Begin: collectMarked,
	Run:   run,
}

// Marks is the analyzer's cross-package fact set: the //pepvet:perrank and
// //pepvet:shared types of every loaded package, keyed
// "importpath.TypeName", so packages can be checked against markers
// declared elsewhere.
type Marks struct {
	PerRank map[string]bool
	Shared  map[string]bool
}

// collectMarked gathers the marker sets across the whole load.
func collectMarked(pkgs []*analysis.Package) any {
	marks := &Marks{PerRank: make(map[string]bool), Shared: make(map[string]bool)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if analysis.HasDirective("perrank", ts.Doc, gd.Doc) {
						marks.PerRank[pkg.Path+"."+ts.Name.Name] = true
					}
					if analysis.HasDirective("shared", ts.Doc, gd.Doc) {
						marks.Shared[pkg.Path+"."+ts.Name.Name] = true
					}
				}
			}
		}
	}
	return marks
}

func run(pass *analysis.Pass) {
	marks := pass.Global.(*Marks)
	if len(marks.PerRank) == 0 && len(marks.Shared) == 0 {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				switch decl.Tok {
				case token.VAR:
					checkPackageVars(pass, decl, marks.PerRank)
				case token.TYPE:
					checkSharedTypes(pass, decl, marks)
				}
			case *ast.FuncDecl:
				if decl.Body != nil {
					checkFunc(pass, decl, marks.PerRank)
					checkSharedWrites(pass, decl, marks.Shared)
				}
			}
		}
	}
}

// checkPackageVars rejects package-level variables holding per-rank state.
func checkPackageVars(pass *analysis.Pass, decl *ast.GenDecl, marked map[string]bool) {
	for _, spec := range decl.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			v, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if tn, bad := involves(v.Type(), marked, 0); bad {
				pass.Reportf(name.Pos(), "package-level variable %s holds per-rank type %s; per-rank state must not outlive or be shared across ranks", name.Name, tn)
			}
		}
	}
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, marked map[string]bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			ct, ok := pass.TypeOf(n.Chan).Underlying().(*types.Chan)
			if !ok {
				return true
			}
			if tn, bad := involves(ct.Elem(), marked, 0); bad {
				pass.Reportf(n.Pos(), "value of per-rank type %s sent on a channel; per-rank state must stay with its owning goroutine", tn)
			}
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if tn, bad := involves(pass.TypeOf(arg), marked, 0); bad {
					pass.Reportf(n.Pos(), "per-rank value of type %s handed to a new goroutine", tn)
				}
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				for _, v := range analysis.CapturedVars(pass.TypesInfo, lit, fd) {
					if tn, bad := involves(v.Type(), marked, 0); bad {
						pass.Reportf(n.Pos(), "goroutine closure captures %s (per-rank type %s)", v.Name(), tn)
					}
				}
			}
		}
		return true
	})
}

// involves reports whether t is, points to, or is a container of a marked
// per-rank type, returning the offending type's rendered name. It does not
// descend into struct fields: a composite owning per-rank state (e.g. the
// Machine owning its Ranks) is itself a legitimate owner.
func involves(t types.Type, marked map[string]bool, depth int) (string, bool) {
	if t == nil || depth > 8 {
		return "", false
	}
	t = types.Unalias(t)
	switch t := t.(type) {
	case *types.Named:
		obj := t.Obj()
		if obj != nil && obj.Pkg() != nil && marked[obj.Pkg().Path()+"."+obj.Name()] {
			return obj.Pkg().Name() + "." + obj.Name(), true
		}
	case *types.Pointer:
		return involves(t.Elem(), marked, depth+1)
	case *types.Slice:
		return involves(t.Elem(), marked, depth+1)
	case *types.Array:
		return involves(t.Elem(), marked, depth+1)
	case *types.Chan:
		return involves(t.Elem(), marked, depth+1)
	case *types.Map:
		if tn, bad := involves(t.Key(), marked, depth+1); bad {
			return tn, true
		}
		return involves(t.Elem(), marked, depth+1)
	}
	return "", false
}

// checkSharedTypes rejects //pepvet:shared declarations that contradict the
// marker: a type also marked per-rank, or a struct with a per-rank field.
func checkSharedTypes(pass *analysis.Pass, decl *ast.GenDecl, marks *Marks) {
	for _, spec := range decl.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok || !analysis.HasDirective("shared", ts.Doc, decl.Doc) {
			continue
		}
		name := pass.Pkg.Name + "." + ts.Name.Name
		if analysis.HasDirective("perrank", ts.Doc, decl.Doc) {
			pass.Reportf(ts.Pos(), "type %s is marked both per-rank and shared", name)
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, f := range st.Fields.List {
			if tn, bad := involves(pass.TypeOf(f.Type), marks.PerRank, 0); bad {
				pass.Reportf(f.Pos(), "shared type %s holds per-rank type %s; state every rank reads must not contain state one rank owns", name, tn)
			}
		}
	}
}

// checkSharedWrites rejects writes to fields of //pepvet:shared types made
// after the value can have been published: everywhere except on a local
// under construction or inside a sync.Once.Do function literal.
func checkSharedWrites(pass *analysis.Pass, fd *ast.FuncDecl, shared map[string]bool) {
	if len(shared) == 0 {
		return
	}
	info := pass.TypesInfo
	fresh := freshLocals(info, fd)
	var once []ast.Node // function literals run under a sync.Once
	check := func(target ast.Expr) {
		base, tn, field, ok := sharedField(info, target, shared)
		if !ok {
			return
		}
		if id, isIdent := ast.Unparen(base).(*ast.Ident); isIdent {
			if v, isVar := info.Uses[id].(*types.Var); isVar && fresh[v] {
				return
			}
		}
		for _, lit := range once {
			if lit.Pos() <= target.Pos() && target.End() <= lit.End() {
				return
			}
		}
		pass.Reportf(target.Pos(), "field %s of shared type %s written after publish; a shared value is immutable once other ranks can reach it (build it in its constructor or under its sync.Once)", field, tn)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(info, n); fn != nil && fn.FullName() == "(*sync.Once).Do" && len(n.Args) == 1 {
				if lit, ok := ast.Unparen(n.Args[0]).(*ast.FuncLit); ok {
					once = append(once, lit)
				}
			}
			switch analysis.CalleeBuiltin(info, n) {
			case "delete", "clear", "copy":
				if len(n.Args) > 0 {
					check(n.Args[0])
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					check(lhs)
				}
			}
		case *ast.IncDecStmt:
			check(n.X)
		}
		return true
	})
}

// freshLocals returns fd's local variables that hold a value still under
// construction: declared by := from a composite literal (or its address) or
// new(T), or by a var statement without an initialiser.
func freshLocals(info *types.Info, fd *ast.FuncDecl) map[*types.Var]bool {
	fresh := make(map[*types.Var]bool)
	mark := func(id *ast.Ident) {
		if v, ok := info.Defs[id].(*types.Var); ok {
			fresh[v] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				rhs := ast.Unparen(n.Rhs[i])
				if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
					rhs = ast.Unparen(u.X)
				}
				switch rhs := rhs.(type) {
				case *ast.CompositeLit:
					mark(id)
				case *ast.CallExpr:
					if analysis.CalleeBuiltin(info, rhs) == "new" {
						mark(id)
					}
				}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 0 {
				for _, id := range n.Names {
					mark(id)
				}
			}
		}
		return true
	})
	return fresh
}

// sharedField peels target (x.f, x.f[i], x.f[i:j], *x.f, x.f.g ...) down to
// the outermost selection of a field of a shared type, returning the
// expression the field is selected from. Fields promoted through an
// embedded shared struct are not seen — the selection's receiver is the
// embedding type.
func sharedField(info *types.Info, target ast.Expr, shared map[string]bool) (base ast.Expr, typeName, field string, ok bool) {
	for {
		switch e := ast.Unparen(target).(type) {
		case *ast.IndexExpr:
			target = e.X
		case *ast.SliceExpr:
			target = e.X
		case *ast.StarExpr:
			target = e.X
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				if tn, is := involves(sel.Recv(), shared, 0); is {
					return e.X, tn, e.Sel.Name, true
				}
			}
			target = e.X
		default:
			return nil, "", "", false
		}
	}
}
