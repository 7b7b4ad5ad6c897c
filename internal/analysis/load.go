package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the import path (module-relative packages use the full
	// module-qualified path, e.g. "pasp/internal/core").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset is shared by every package of one Load call.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the expression/object resolution analyzers consume.
	Info *types.Info
	// TypeErrors collects type-checker complaints; analyzers still run on
	// packages with errors, with best-effort type information.
	TypeErrors []error

	// deps is the loader's full package cache — every module-internal
	// package pulled in by imports, keyed by import path. The
	// interprocedural Program uses it to compute facts for functions
	// outside the reporting set ("palint ./internal/mpi" still sees
	// through calls into internal/obs).
	deps map[string]*Package
}

// loader resolves imports offline: module-internal paths from the repo
// tree, everything else (the standard library) through the source importer,
// which compiles from $GOROOT source and needs no network or export data.
type loader struct {
	fset     *token.FileSet
	root     string // absolute module root
	module   string // module path from go.mod
	pkgs     map[string]*Package
	inFlight map[string]bool
	fallback types.ImporterFrom
}

// Load parses and type-checks the packages matched by patterns under root
// (the directory holding go.mod). Patterns follow the go tool's shape:
// "./..." for the whole tree, "./x/..." for a subtree, "./x" or "x" for a
// single directory. Wildcard walks skip testdata, vendor and dot/underscore
// directories; naming a directory explicitly always loads it (that is how
// the golden tests load seeded-violation packages).
func Load(root string, patterns []string) ([]*Package, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(absRoot)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:     fset,
		root:     absRoot,
		module:   module,
		pkgs:     map[string]*Package{},
		inFlight: map[string]bool{},
	}
	if from, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom); ok {
		ld.fallback = from
	} else {
		return nil, fmt.Errorf("analysis: source importer unavailable")
	}

	dirs, err := ld.expand(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		pkg, err := ld.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	// Share the loader's full cache (pattern packages plus every
	// module-internal import) so interprocedural analysis sees function
	// bodies beyond the reporting set.
	for _, p := range out {
		p.deps = ld.pkgs
	}
	return out, nil
}

// LoadModule loads patterns in the module that holds the working directory
// (the nearest go.mod above it) and returns the module root with the
// packages. A type error in any loaded package fails the load: the commands
// refuse to analyze a tree that does not compile.
func LoadModule(patterns []string) (string, []*Package, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", nil, err
	}
	pkgs, err := Load(root, patterns)
	if err != nil {
		return "", nil, err
	}
	var typeErrs []error
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			typeErrs = append(typeErrs, fmt.Errorf("type error: %w", e))
		}
	}
	if len(typeErrs) > 0 {
		return "", nil, errors.Join(typeErrs...)
	}
	return root, pkgs, nil
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module line of root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: %w (run from the module root)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", root)
}

// expand resolves the patterns into an ordered, deduplicated directory list.
func (l *loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if pat == "" {
			pat = "."
		}
		switch {
		case pat == "..." || pat == ".":
			if err := l.walk(l.root, add); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(l.root, strings.TrimSuffix(pat, "/..."))
			if err := l.walk(base, add); err != nil {
				return nil, err
			}
		default:
			dir := filepath.Join(l.root, pat)
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				return nil, fmt.Errorf("analysis: no such package directory %q", pat)
			}
			add(dir)
		}
	}
	return dirs, nil
}

// walk collects every directory under base containing .go files, honoring
// the go tool's conventions for ignored directory names.
func (l *loader) walk(base string, add func(string)) error {
	return filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			add(filepath.Dir(path))
		}
		return nil
	})
}

// importPathFor maps a repo directory to its import path.
func (l *loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return l.module, nil
	}
	return l.module + "/" + rel, nil
}

// loadDir parses and type-checks one directory, reusing the cache. A
// directory with no non-test .go files returns (nil, nil).
func (l *loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.inFlight[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.inFlight[path] = true
	defer delete(l.inFlight, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns a usable (if incomplete) package even on error; the
	// collected TypeErrors carry the detail.
	tpkg, _ := conf.Check(path, l.fset, files, pkg.Info)
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load from
// the tree, the rest from $GOROOT source.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		sub := filepath.Join(l.root, strings.TrimPrefix(path, l.module))
		pkg, err := l.loadDir(sub)
		if err != nil {
			return nil, err
		}
		if pkg == nil || pkg.Types == nil {
			return nil, fmt.Errorf("analysis: no Go sources in %q", path)
		}
		return pkg.Types, nil
	}
	return l.fallback.ImportFrom(path, dir, mode)
}
