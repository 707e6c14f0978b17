package churnlb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// docs are the files whose commands, names and hashes the docs tests
// check: the user manual, the CI workflow and the verify skill's
// build-and-run notes.
var docs = []string{"README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}

// TestDocsNameOnlyWhatExists keeps README.md, the CI workflow and the
// verify skill's build-and-run notes from citing a benchmark or a test that is gone: every Benchmark* token must be
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
// every -flag they pass to lbsim, lbserve, lbd or reproduce must be
// defined on the FlagSet in that tool's main.go — a flag that is removed
// leaves its examples behind. Every README section that a Go file of the
// module (wrapped comment lines joined), the CI workflow or the verify
// skill cites by its quoted title must be a README heading or bold run-in
// label that still exists — a section that is cut or renamed leaves the
// comments that justify a constant by it behind. bench/ is a module of
// its own, whose citations name bench/README.md.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	read := func(path string) string { return readDoc(t, path) }
	var funcs, goFiles []string
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
		if strings.HasSuffix(path, ".go") && !strings.HasPrefix(path, "bench/") {
			goFiles = append(goFiles, path)
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
	for _, tool := range []string{"lbsim", "lbserve", "lbd", "reproduce"} {
		defined := map[string]bool{"h": true, "help": true} // the flag package's own
		for _, m := range flagDefRE.FindAllStringSubmatch(read(filepath.Join("cmd", tool, "main.go")), -1) {
			defined[m[1]] = true
		}
		toolFlags[tool] = defined
	}
	// README's sections are its headings and the bold labels that open a
	// paragraph or a list item; a citation names one by the text it
	// starts with ("Live daemon" names "## Live daemon (`cmd/lbd`)").
	var sections []string
	for _, m := range regexp.MustCompile(`(?m)^(?:#+ +(.+)|(?:[-*] |\d+\. )?\*\*([^*]+)\*\*)`).FindAllStringSubmatch(read("README.md"), -1) {
		sections = append(sections, strings.TrimSpace(m[1]+m[2]))
	}
	isSection := func(title string) bool {
		return slices.ContainsFunc(sections, func(s string) bool {
			rest, ok := strings.CutPrefix(s, title)
			return ok && (rest == "" || !unicode.IsLetter(rune(rest[0])) && !unicode.IsDigit(rune(rest[0])))
		})
	}
	citeRE := regexp.MustCompile(`(?:^|[^/\w])README(?:'s)?,?\s+"([^"]+)"`)
	wrapRE := map[string]*regexp.Regexp{
		".go":  regexp.MustCompile(`\n[ \t]*//[ \t]*`),
		".yml": regexp.MustCompile(`\n[ \t]*#[ \t]*`),
		".md":  regexp.MustCompile(`\n[ \t]*`),
	}
	for _, path := range append(goFiles, ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md") {
		joined := wrapRE[filepath.Ext(path)].ReplaceAllString(read(path), " ")
		for _, m := range citeRE.FindAllStringSubmatch(joined, -1) {
			if !isSection(m[1]) {
				t.Errorf("%s cites README %q, which no README heading or bold label begins with", path, m[1])
			}
		}
	}

	flagRE := regexp.MustCompile(`^--?([a-z][a-z0-9]*)`)
	cmdEndRE := regexp.MustCompile("[|`]|&&")
	for _, doc := range docs {
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

// readDoc returns the file at path, failing the test if it cannot.
func readDoc(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDocsQuoteRecordedHashes holds every 16-hex-digit fingerprint or
// decision hash that README.md, the CI workflow or the verify skill
// quotes to the place the tree records it: a row of bench/README.md's
// seed-1 fingerprint table, or the decision hash TestJSQDecisionHash
// asserts. A hash mistyped in a document, or left behind when the
// recorded one changes, fails here.
func TestDocsQuoteRecordedHashes(t *testing.T) {
	hexRE := regexp.MustCompile(`\b[0-9a-f]{16}\b`)
	recorded := map[string]bool{}
	_, table, ok := strings.Cut(readDoc(t, "bench/README.md"), "### Fingerprints, seed 1")
	table, _, _ = strings.Cut(table, "\n#")
	for _, h := range hexRE.FindAllString(table, -1) {
		recorded[h] = true
	}
	if !ok || len(recorded) == 0 {
		t.Fatal(`bench/README.md has no "Fingerprints, seed 1" table`)
	}
	_, body, _ := strings.Cut(readDoc(t, "cmd/lbserve/main_test.go"), "\nfunc TestJSQDecisionHash(")
	body, _, _ = strings.Cut(body, "\n}\n")
	m := regexp.MustCompile(`"hash ([0-9a-f]{16})"`).FindStringSubmatch(body)
	if m == nil {
		t.Fatal("cmd/lbserve/main_test.go: TestJSQDecisionHash asserts no decision hash")
	}
	recorded[m[1]] = true
	for _, doc := range docs {
		for _, h := range hexRE.FindAllString(readDoc(t, doc), -1) {
			if !recorded[h] {
				t.Errorf("%s quotes %s, which neither bench/README.md's seed-1 fingerprint table nor TestJSQDecisionHash records", doc, h)
			}
		}
	}
}

// TestFacadeIsALeaf keeps the public package a leaf of the module: no
// package under internal/ imports it, so every engine, the manifest
// runner included, builds its runs on the internal packages and the
// facade adapts only for callers outside them. Commands and examples may
// use it.
func TestFacadeIsALeaf(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return fs.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"churnlb"` {
				t.Errorf("%s imports churnlb: internal packages build on the engines, not on the public facade", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSizeLedger holds LINES.txt to two counts: the verify skill's count
// of non-test Go — `git ls-files '*.go' | grep -v _test | grep -v
// '^bench/' | xargs cat | wc -l` — recomputed here with the same filters
// and newline count, and README.md's lines (`wc -l README.md`), so a
// change that grows or shrinks the code or the manual shows it in its
// diff. Each line of LINES.txt is a count and what it counts. The Go count
// is skipped without git or a checkout; it is of tracked files, so stage
// new ones first.
func TestSizeLedger(t *testing.T) {
	ledger := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(readDoc(t, "LINES.txt")), "\n") {
		n, what, _ := strings.Cut(strings.TrimSpace(line), " ")
		ledger[what] = n
	}
	check := func(what string, lines int) {
		t.Helper()
		if want := ledger[what]; want != strconv.Itoa(lines) {
			t.Errorf("LINES.txt records %q lines of %s, the tree has %d: write %d there", want, what, lines, lines)
		}
	}
	check("README.md", strings.Count(readDoc(t, "README.md"), "\n"))
	out, err := exec.Command("git", "ls-files", "*.go").Output()
	if err != nil {
		t.Skipf("no git checkout to count non-test Go: %v", err)
	}
	lines := 0
	for _, f := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if f == "" || strings.Contains(f, "_test") || strings.HasPrefix(f, "bench/") {
			continue
		}
		lines += strings.Count(readDoc(t, f), "\n")
	}
	check("non-test Go", lines)
}
