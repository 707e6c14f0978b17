// Package analysistest runs a lint analyzer over testdata packages and
// checks its diagnostics against // want annotations — the same
// contract as golang.org/x/tools/go/analysis/analysistest, rebuilt on
// the standard library so the suite needs no external modules.
//
// Layout mirrors upstream: Run(t, dir, analyzer, "a") loads every .go
// file under dir/src/a, type-checks it (imports resolve under dir/src
// first, then the standard library), runs the analyzer, and demands an
// exact match between reported diagnostics and the `// want "regexp"`
// comments in the sources: every diagnostic must be expected by a want
// on its line, and every want must be matched by a diagnostic.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"churnlb/internal/lint/analysis"
	"churnlb/internal/lint/load"
)

// Run analyzes each named package under dir/src and reports mismatches
// between diagnostics and // want annotations as test errors.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		run1(t, dir, a, pkg)
	}
}

// testImporter resolves testdata-local import paths before falling
// back to the stdlib source importer.
type testImporter struct {
	dir   string // the testdata src root
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*types.Package
}

func (im *testImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := im.cache[path]; ok {
		return pkg, nil
	}
	pdir := filepath.Join(im.dir, filepath.FromSlash(path))
	if st, err := os.Stat(pdir); err == nil && st.IsDir() {
		files, err := parseDir(im.fset, pdir)
		if err != nil {
			return nil, err
		}
		conf := types.Config{Importer: im}
		pkg, err := conf.Check(path, im.fset, files, load.NewInfo())
		if err != nil {
			return nil, err
		}
		im.cache[path] = pkg
		return pkg, nil
	}
	return im.std.Import(path)
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		name := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysistest: no .go files in %s", dir)
	}
	return files, nil
}

func run1(t *testing.T, dir string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	src := filepath.Join(dir, "src")
	fset := token.NewFileSet()
	files, err := parseDir(fset, filepath.Join(src, filepath.FromSlash(pkg)))
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	im := &testImporter{
		dir:   src,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		cache: make(map[string]*types.Package),
	}
	info := load.NewInfo()
	conf := types.Config{Importer: im}
	tpkg, err := conf.Check(pkg, fset, files, info)
	if err != nil {
		t.Fatalf("%s: type-checking: %v", pkg, err)
	}

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       tpkg,
		TypesInfo: info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer %s: %v", pkg, a.Name, err)
	}

	check(t, fset, files, a.Name, diags)
}

// want is one expectation: a compiled regexp anchored to a file line.
type want struct {
	file string
	line int
	rx   *regexp.Regexp
	raw  string
	hit  bool
}

var wantRx = regexp.MustCompile(`(?://|/\*)\s*want\s+(.*)`)

// parseWants extracts the `// want "rx" "rx"...` annotations of a file.
func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) []*want {
	t.Helper()
	var ws []*want
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRx.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimSuffix(strings.TrimSpace(m[1]), "*/")
			for rest != "" {
				rest = strings.TrimSpace(rest)
				if rest == "" {
					break
				}
				if rest[0] != '"' && rest[0] != '`' {
					t.Fatalf("%s:%d: malformed want pattern %q", pos.Filename, pos.Line, rest)
				}
				q, err := strconv.QuotedPrefix(rest)
				if err != nil {
					t.Fatalf("%s:%d: malformed want pattern %q: %v", pos.Filename, pos.Line, rest, err)
				}
				lit, _ := strconv.Unquote(q) // a quoted prefix always unquotes
				rx, err := regexp.Compile(lit)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, lit, err)
				}
				ws = append(ws, &want{file: pos.Filename, line: pos.Line, rx: rx, raw: lit})
				rest = rest[len(q):]
			}
		}
	}
	return ws
}

// check matches diagnostics against wants one line at a time.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, name string, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		wants = append(wants, parseWants(t, fset, f)...)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.rx.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected %s diagnostic: %s", pos.Filename, pos.Line, name, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no %s diagnostic matched want %q", w.file, w.line, name, w.raw)
		}
	}
}
