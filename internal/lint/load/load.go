// Package load turns Go package patterns into fully type-checked
// syntax trees for the lbcheck analyzers — a self-contained stand-in
// for golang.org/x/tools/go/packages built only on the standard
// library, because this repository's build environment cannot fetch
// external modules.
//
// Enumeration is delegated to `go list -json` (the authority on module
// layout, build tags and file sets), parsing and type checking to
// go/parser and go/types. Imports resolve in two tiers: packages inside
// this module are listed, parsed and checked recursively from source;
// everything else (the standard library) goes through the stdlib
// source importer (go/importer "source"), which reads GOROOT and needs
// no network or export data. In-package _test.go files are checked
// together with the package proper, so the analyzers see test code
// too; external (package foo_test) files form their own package entry.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// ImportPath is the package's import path; external test packages
	// carry the "_test" suffix go list reports for them.
	ImportPath string
	// Dir is the directory holding the source files.
	Dir string
	// Fset maps positions for every file of every package loaded in
	// the same Load call (a single shared file set).
	Fset *token.FileSet
	// Files are the parsed files: GoFiles plus in-package test files.
	Files []*ast.File
	// Pkg and Info are the go/types results for Files.
	Pkg  *types.Package
	Info *types.Info
}

// listing mirrors the subset of `go list -json` output the loader
// consumes.
type listing struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
	Module       *struct{ Path string }
}

// loader memoizes parsed and checked packages across one Load call.
type loader struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	modpath string
	listed  map[string]*listing
	checked map[string]*Package
	stack   []string // import cycle reporting
}

// Load lists, parses and type-checks the packages matching patterns
// (as understood by `go list`, e.g. "./..." or full import paths) in
// the enclosing module, returning them in the order go list reports.
// In-package test files are included in each package's Files; external
// test packages are appended as their own entries.
func Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	roots, byPath, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:    token.NewFileSet(),
		listed:  byPath,
		checked: make(map[string]*Package),
	}
	l.std, _ = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	if len(roots) > 0 && roots[0].Module != nil {
		l.modpath = roots[0].Module.Path
	}
	var out []*Package
	for _, li := range roots {
		p, err := l.check(li.ImportPath)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		if len(li.XTestGoFiles) > 0 {
			xp, err := l.checkXTest(li)
			if err != nil {
				return nil, err
			}
			out = append(out, xp)
		}
	}
	return out, nil
}

// goList runs `go list -json` and decodes the stream. It returns the
// matched packages in order plus an index by import path.
func goList(patterns []string) ([]*listing, map[string]*listing, error) {
	args := append([]string{"list", "-json", "-e", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("lint/load: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	var roots []*listing
	byPath := make(map[string]*listing)
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		li := new(listing)
		if err := dec.Decode(li); err != nil {
			return nil, nil, fmt.Errorf("lint/load: decoding go list output: %v", err)
		}
		if li.Error != nil {
			return nil, nil, fmt.Errorf("lint/load: %s: %s", li.ImportPath, li.Error.Err)
		}
		roots = append(roots, li)
		byPath[li.ImportPath] = li
	}
	return roots, byPath, nil
}

// local reports whether path belongs to the enclosing module and must
// therefore be checked from listed source rather than via the stdlib
// importer.
func (l *loader) local(path string) bool {
	return l.modpath != "" &&
		(path == l.modpath || strings.HasPrefix(path, l.modpath+"/"))
}

// listed returns the go list record for a local import path, running a
// follow-up `go list` for dependencies outside the original patterns.
func (l *loader) listing(path string) (*listing, error) {
	if li, ok := l.listed[path]; ok {
		return li, nil
	}
	roots, _, err := goList([]string{path})
	if err != nil {
		return nil, err
	}
	if len(roots) != 1 {
		return nil, fmt.Errorf("lint/load: go list %s matched %d packages", path, len(roots))
	}
	l.listed[path] = roots[0]
	return roots[0], nil
}

// Import implements types.Importer (vendor-oblivious form of ImportFrom).
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-local packages are
// checked recursively from source, the rest delegates to the stdlib
// source importer.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if l.local(path) {
		p, err := l.check(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// check parses and type-checks one local package (memoized), with its
// in-package test files.
func (l *loader) check(path string) (*Package, error) {
	if p, ok := l.checked[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("lint/load: import cycle through %s: %s",
				path, strings.Join(l.stack, " -> "))
		}
		return p, nil
	}
	li, err := l.listing(path)
	if err != nil {
		return nil, err
	}
	l.checked[path] = nil // cycle marker
	l.stack = append(l.stack, path)
	defer func() { l.stack = l.stack[:len(l.stack)-1] }()

	names := append(append([]string(nil), li.GoFiles...), li.TestGoFiles...)
	p, err := l.typecheck(path, li.Dir, names)
	if err != nil {
		return nil, err
	}
	l.checked[path] = p
	return p, nil
}

// checkXTest builds the external (package foo_test) companion package.
func (l *loader) checkXTest(li *listing) (*Package, error) {
	return l.typecheck(li.ImportPath+"_test", li.Dir, li.XTestGoFiles)
}

// typecheck parses names (relative to dir) and runs go/types over them.
func (l *loader) typecheck(path, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint/load: %v", err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint/load: type-checking %s: %v", path, err)
	}
	return &Package{
		ImportPath: path,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}, nil
}

// NewInfo allocates the types.Info map set the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
