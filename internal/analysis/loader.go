package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one fully type-checked package of the module under analysis.
type Package struct {
	Path  string // import path, e.g. sma/internal/core
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single module using only
// the standard library: module-internal imports are resolved from the
// module directory and cached; everything else (the standard library)
// goes through the source importer. Test files are never loaded.
type Loader struct {
	ModulePath string
	ModuleDir  string
	Fset       *token.FileSet

	std   types.Importer
	cache map[string]*Package
}

// NewLoader builds a loader rooted at moduleDir, reading the module path
// from go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: module root: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModulePath: modPath,
		ModuleDir:  abs,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      map[string]*Package{},
	}, nil
}

// LoadDir loads the package in dir (absolute or relative to the module
// root).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs := dir
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(l.ModuleDir, dir)
	}
	abs = filepath.Clean(abs)
	rel, err := filepath.Rel(l.ModuleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleDir)
	}
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.load(path, abs)
}

// Packages returns every package the loader has type-checked so far, in
// import-path order.
func (l *Loader) Packages() []*Package {
	var out []*Package
	for _, pkg := range l.cache {
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return pkg, nil
	}
	l.cache[path] = nil // cycle marker

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		include, err := buildConstraintSatisfied(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		if !include {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: (*moduleImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = pkg
	return pkg, nil
}

// buildConstraintSatisfied reports whether the file's //go:build line (if
// any) is satisfied under the default build configuration: host GOOS/GOARCH,
// the gc compiler, and all go1.x release tags true; custom tags false. Files whose constraint fails are
// skipped, exactly as `go build` would skip them, so mutually exclusive
// build-tagged file pairs no longer type-check as duplicate declarations.
// Only the header before the package clause is scanned, matching the
// constraint placement rules the go tool enforces.
func buildConstraintSatisfied(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "package ") {
			break
		}
		if !constraint.IsGoBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			return false, fmt.Errorf("analysis: %s: %w", path, err)
		}
		return expr.Eval(defaultBuildTag), nil
	}
	return true, sc.Err()
}

// defaultBuildTag evaluates a single build tag under the default
// configuration (no custom -tags).
func defaultBuildTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc", "unix":
		return true
	}
	if rest, ok := strings.CutPrefix(tag, "go1"); ok {
		return rest == "" || strings.HasPrefix(rest, ".")
	}
	return false
}

// moduleImporter routes module-internal import paths to the loader and
// everything else to the shared source importer.
type moduleImporter Loader

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(m)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.load(path, filepath.Join(l.ModuleDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
