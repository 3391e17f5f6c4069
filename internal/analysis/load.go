// Package loading for the pepvet driver. The repo is stdlib-only, so the
// loader cannot lean on golang.org/x/tools/go/packages; instead it asks the
// go tool to enumerate packages and compile export data (`go list -export
// -deps -json`), parses each target package's non-test sources itself, and
// type-checks them against the export data of their dependencies through the
// standard gc importer. The result is a fully typed syntax view of every
// first-party package at roughly the cost of a warm `go build`.

package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// goList runs `go list -export -deps -json` in dir over args and decodes the
// package stream.
func goList(dir string, args []string) ([]*listedPackage, error) {
	cmdArgs := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,GoFiles,Export,Standard,DepOnly",
	}, args...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return nil, fmt.Errorf("go list: %v\n%s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list: %v", err)
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// exportLookup builds the importer lookup over the listing's export data.
func exportLookup(listed []*listedPackage) func(path string) (io.ReadCloser, error) {
	exports := make(map[string]string, len(listed))
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	return func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("pepvet: no export data for %q", path)
		}
		return os.Open(f)
	}
}

// newInfo returns a types.Info with every table the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// Load enumerates, parses, and type-checks the non-test sources of the
// packages matching patterns, resolved relative to dir (a directory inside a
// Go module). Standard-library and external dependencies are imported from
// export data, not re-analyzed.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	// Every non-stdlib package in the dependency closure is type-checked from
	// source, not export data: the interprocedural layer keys its call graph
	// on *types.Func identity, and only a shared type-checked view gives a
	// caller in one package and the declaration in another the same object.
	// (Mixing views also breaks type-checking outright: a dep-only package
	// loaded from export data would mention target types from a second,
	// incompatible universe.) `go list -deps` emits dependencies before
	// dependents, so by the time a package is checked every non-stdlib
	// package it imports is already in local. Dep-only packages are checked
	// for identity's sake but not returned for analysis.
	local := make(map[string]*types.Package)
	imp := corpusImporter{
		local: local,
		base:  importer.ForCompiler(fset, "gc", exportLookup(listed)),
	}
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := checkPackage(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		local[lp.ImportPath] = pkg.Types
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// corpusImporter resolves a corpus helper package by its directory name and
// defers everything else (the standard library) to export data.
type corpusImporter struct {
	local map[string]*types.Package
	base  types.Importer
}

func (ci corpusImporter) Import(path string) (*types.Package, error) {
	if p, ok := ci.local[path]; ok {
		return p, nil
	}
	return ci.base.Import(path)
}

// LoadCorpus parses and type-checks a seeded-violation corpus rooted at dir:
// the package held in dir itself (returned first) plus one helper package
// per immediate subdirectory containing Go files. A helper is imported by
// its bare directory name (`import "helper"`) — a path the go tool would
// never resolve, which is deliberate: corpora live under testdata and are
// only ever built here, and the fake path keeps them from colliding with
// real modules. Helpers may import the standard library but not each other.
// Multi-package corpora are what let the interprocedural analyzers' tests
// express cross-package facts (a taint source hidden behind a foreign
// helper) that a single-package corpus cannot. dir must lie inside a Go
// module so the go tool can supply export data for the corpus's
// (standard-library) imports.
func LoadCorpus(dir string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var mainNames, subdirs []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir():
			subdirs = append(subdirs, name)
		case filepath.Ext(name) == ".go" && !isTestFile(name):
			mainNames = append(mainNames, name)
		}
	}
	if len(mainNames) == 0 {
		return nil, fmt.Errorf("pepvet: no Go files in %s", dir)
	}

	// Parse everything first to learn the import set, then let the go tool
	// compile export data for exactly those dependencies.
	fset := token.NewFileSet()
	mainFiles, err := parseFiles(fset, dir, mainNames)
	if err != nil {
		return nil, err
	}
	type subPkg struct {
		name  string
		dir   string
		files []*ast.File
	}
	var subs []subPkg
	for _, sd := range subdirs {
		subDir := filepath.Join(dir, sd)
		subEntries, err := os.ReadDir(subDir)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, e := range subEntries {
			if name := e.Name(); !e.IsDir() && filepath.Ext(name) == ".go" && !isTestFile(name) {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			continue
		}
		files, err := parseFiles(fset, subDir, names)
		if err != nil {
			return nil, err
		}
		subs = append(subs, subPkg{name: sd, dir: subDir, files: files})
	}

	local := make(map[string]*types.Package, len(subs))
	importSet := make(map[string]bool)
	collect := func(files []*ast.File) {
		for _, f := range files {
			for _, spec := range f.Imports {
				p, err := strconv.Unquote(spec.Path.Value)
				if err != nil || p == "unsafe" {
					continue
				}
				if _, isLocal := local[p]; !isLocal {
					importSet[p] = true
				}
			}
		}
	}
	for _, s := range subs {
		local[s.name] = nil // reserve: main's imports of helpers are local
	}
	collect(mainFiles)
	for _, s := range subs {
		collect(s.files)
	}
	delete(importSet, "")
	var listed []*listedPackage
	if len(importSet) > 0 {
		args := make([]string, 0, len(importSet))
		for p := range importSet {
			if _, isLocal := local[p]; !isLocal {
				args = append(args, p)
			}
		}
		if listed, err = goList(dir, args); err != nil {
			return nil, err
		}
	}
	imp := corpusImporter{
		local: local,
		base:  importer.ForCompiler(fset, "gc", exportLookup(listed)),
	}

	var pkgs []*Package
	for _, s := range subs {
		pkg, err := checkFiles(fset, imp, s.name, s.dir, s.files)
		if err != nil {
			return nil, err
		}
		local[s.name] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	name := mainFiles[0].Name.Name
	mainPkg, err := checkFiles(fset, imp, name, dir, mainFiles)
	if err != nil {
		return nil, err
	}
	return append([]*Package{mainPkg}, pkgs...), nil
}

// checkPackage parses and type-checks one listed package.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	files, err := parseFiles(fset, dir, goFiles)
	if err != nil {
		return nil, err
	}
	return checkFiles(fset, imp, path, dir, files)
}

// checkFiles type-checks already-parsed files as one package.
func checkFiles(fset *token.FileSet, imp types.Importer, path, dir string, files []*ast.File) (*Package, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("pepvet: type-checking %s: %v", path, err)
	}
	return &Package{
		Path: path, Name: tpkg.Name(), Dir: dir,
		Fset: fset, Files: files, Types: tpkg, Info: info,
	}, nil
}

// parseFiles parses the named files in dir with comments retained (the
// directive and suppression machinery reads them).
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func isTestFile(name string) bool {
	return len(name) > len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}
