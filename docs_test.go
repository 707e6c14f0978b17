package churnlb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsNameOnlyWhatExists keeps README.md and the CI workflow from
// citing a benchmark or a test that is gone: every Benchmark* token must be
// a func in some _test.go of the tree (a trailing * makes it a prefix),
// every Test* / Fuzz* token must be such a func or a prefix of one (they
// are `go test -run` patterns: a step whose pattern matches nothing passes
// with "no tests to run" the day a test is renamed), every backticked
// bench/ workload or metric name must be a name in BENCHMARK.json, and
// every internal/<pkg> or cmd/<tool> path must be a directory of the tree —
// a package that moved or merged leaves such references behind — and every
// backticked pkg.Ident whose pkg is this package or a directory under
// internal/ must be declared in a non-test file of that package (type,
// func, method, const or var; of a longer path only Ident is checked), and
// every -flag they pass to lbsim, lbserve, lbd, lbbed or reproduce must be
// defined on the FlagSet in that tool's main.go — a flag that is removed
// leaves its examples behind.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var funcs []string
	pkgDirs := map[string]string{"churnlb": "."} // package name (= directory name) → directory
	funcRE := regexp.MustCompile(`(?m)^func ((?:Benchmark|Test|Fuzz)[A-Z]\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir // .git, .bench_build
		}
		if d.IsDir() && d.Name() == "testdata" {
			return fs.SkipDir
		}
		if d.IsDir() && strings.HasPrefix(path, "internal/") {
			pkgDirs[d.Name()] = path
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range funcRE.FindAllStringSubmatch(read(path), -1) {
				funcs = append(funcs, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range regexp.MustCompile(`"name": "([^"]+)"`).FindAllStringSubmatch(read("BENCHMARK.json"), -1) {
		declared[m[1]] = true
	}

	benchRE := regexp.MustCompile(`Benchmark[A-Z]\w*\*?`)
	testRE := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`)
	nameRE := regexp.MustCompile("`((?:closed|serve|live)-[a-z0-9-]+|[a-z]+\\.[a-z0-9]+_[a-z0-9_]+)`")
	pathRE := regexp.MustCompile(`\b(?:internal|cmd)/[a-z][a-z0-9]*`)
	spanRE := regexp.MustCompile("`[^`\n]+`")
	identRE := regexp.MustCompile(`(^|[^\w./-])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)`)
	decls := map[string]map[string]bool{} // directory → names its non-test files declare
	declares := func(dir, name string) bool {
		if decls[dir] == nil {
			decls[dir] = map[string]bool{}
			pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkg := range pkgs {
				for _, f := range pkg.Files {
					for _, d := range f.Decls {
						switch d := d.(type) {
						case *ast.FuncDecl:
							decls[dir][d.Name.Name] = true
						case *ast.GenDecl:
							for _, spec := range d.Specs {
								switch spec := spec.(type) {
								case *ast.TypeSpec:
									decls[dir][spec.Name.Name] = true
								case *ast.ValueSpec:
									for _, id := range spec.Names {
										decls[dir][id.Name] = true
									}
								}
							}
						}
					}
				}
			}
		}
		return decls[dir][name]
	}
	toolFlags := map[string]map[string]bool{}
	flagDefRE := regexp.MustCompile(`\bfs\.\w+\((?:&[\w.]+, )?"([\w-]+)"`)
	for _, tool := range []string{"lbsim", "lbserve", "lbd", "lbbed", "reproduce"} {
		defined := map[string]bool{"h": true, "help": true} // the flag package's own
		for _, m := range flagDefRE.FindAllStringSubmatch(read(filepath.Join("cmd", tool, "main.go")), -1) {
			defined[m[1]] = true
		}
		toolFlags[tool] = defined
	}
	flagRE := regexp.MustCompile(`^--?([a-z][a-z0-9]*)`)
	cmdEndRE := regexp.MustCompile("[|`]|&&")
	for _, doc := range []string{"README.md", ".github/workflows/ci.yml"} {
		text := read(doc)
		// A tool's flags are the -words after its name up to the end of the
		// command: the line with its \ continuations, cut at a pipe, an &&
		// or a backtick.
		for _, line := range strings.Split(strings.ReplaceAll(text, "\\\n", " "), "\n") {
			for _, cmd := range cmdEndRE.Split(line, -1) {
				tool := ""
				for _, tok := range strings.Fields(cmd) {
					tok = strings.Trim(tok, `,.:;()[]"'*`)
					if toolFlags[filepath.Base(tok)] != nil {
						tool = filepath.Base(tok)
					} else if m := flagRE.FindStringSubmatch(tok); m != nil && tool != "" && !toolFlags[tool][m[1]] {
						t.Errorf("%s passes -%s to %s, which its main.go does not define", doc, m[1], tool)
					}
				}
			}
		}
		for _, tok := range benchRE.FindAllString(text, -1) {
			prefix := strings.TrimSuffix(tok, "*")
			if !slices.ContainsFunc(funcs, func(f string) bool {
				return f == prefix || (prefix != tok && strings.HasPrefix(f, prefix))
			}) {
				t.Errorf("%s names %s, which no _test.go declares", doc, tok)
			}
		}
		for _, tok := range testRE.FindAllString(text, -1) {
			if !slices.ContainsFunc(funcs, func(f string) bool { return strings.HasPrefix(f, tok) }) {
				t.Errorf("%s names %s, which no _test.go declares (nor any test it is a prefix of)", doc, tok)
			}
		}
		for _, m := range nameRE.FindAllStringSubmatch(text, -1) {
			if !declared[m[1]] {
				t.Errorf("%s names `%s`, which BENCHMARK.json does not declare", doc, m[1])
			}
		}
		for _, dir := range pathRE.FindAllString(text, -1) {
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory of the tree", doc, dir)
			}
		}
		for _, span := range spanRE.FindAllString(text, -1) {
			for _, m := range identRE.FindAllStringSubmatch(span, -1) {
				dir, ok := pkgDirs[m[2]]
				// sim.go is a file; des.cpu_share is a benchmark metric.
				if !ok || m[3] == "go" || strings.Contains(m[3], "_") {
					continue
				}
				if !declares(dir, m[3]) {
					t.Errorf("%s names `%s.%s`, which no non-test file of %s declares", doc, m[2], m[3], dir)
				}
			}
		}
	}
}
