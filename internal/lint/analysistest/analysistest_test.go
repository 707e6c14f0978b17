package analysistest

import (
	"go/parser"
	"go/token"
	"testing"
)

// TestParseWants pins how a want comment splits into patterns: raw and
// interpreted literals, escaped quotes, several patterns in one comment
// and the block-comment form.
func TestParseWants(t *testing.T) {
	const src = "package a\n" +
		"\n" +
		"var a = 1 // want `raw \\. \"quoted\" pattern`\n" +
		"var b = 2 // want \"say \\\"hi\\\"\" `and\\s+raw`\n" +
		"var c = 3 // want \"one\" \"two\"   `three`\n" +
		"var d = 4 /* want \"block\\tcomment\" */\n" +
		"var e = 5 // not an expectation\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	type expect struct {
		line int
		raw  string
	}
	want := []expect{
		{3, `raw \. "quoted" pattern`},
		{4, `say "hi"`},
		{4, `and\s+raw`},
		{5, "one"},
		{5, "two"},
		{5, "three"},
		{6, "block\tcomment"},
	}
	ws := parseWants(t, fset, f)
	if len(ws) != len(want) {
		t.Fatalf("parsed %d wants, want %d", len(ws), len(want))
	}
	for i, w := range ws {
		if w.file != "a.go" || w.line != want[i].line || w.raw != want[i].raw {
			t.Errorf("want %d = %s:%d %q, expected a.go:%d %q", i, w.file, w.line, w.raw, want[i].line, want[i].raw)
		}
		if w.rx.String() != w.raw || w.hit {
			t.Errorf("want %d: regexp %q, hit %v", i, w.rx, w.hit)
		}
	}
}
