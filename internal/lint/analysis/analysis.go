// Package analysis is a minimal, API-compatible subset of
// golang.org/x/tools/go/analysis, carrying exactly what the lbcheck
// analyzers need: an Analyzer descriptor, a per-package Pass with full
// type information, and positioned Diagnostics.
//
// The build environment for this repository cannot fetch external
// modules, so the x/tools dependency is gated behind this shim instead
// of vendored: the field names, shapes and calling conventions mirror
// the upstream package one-to-one, which keeps every analyzer in
// internal/lint a drop-in source for the real
// analysis/multichecker/analysistest stack — migrating is a matter of
// swapping import paths, not rewriting rules. What the shim omits
// (sub-analyzer requirements, facts, suggested fixes) the suite does
// not use.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static-analysis pass: a name for diagnostics
// and suppression directives, documentation, and the Run function
// applied once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //lint:ignore directives. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description shown by lbcheck -help:
	// first line is the summary, the rest explains the rule and its
	// repaired idioms.
	Doc string
	// Run applies the analyzer to one package. Diagnostics are
	// delivered through pass.Report; the result value is unused by
	// this suite (upstream analyzers may return facts) and may be nil.
	Run func(*Pass) (any, error)
}

// Pass carries one type-checked package through an Analyzer.Run. All
// fields are read-only for the analyzer.
type Pass struct {
	// Analyzer is the pass's own descriptor (for self-identification
	// in shared helpers).
	Analyzer *Analyzer
	// Fset maps token.Pos values in Files to file positions.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's facts about every expression
	// and identifier in Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver owns aggregation,
	// suppression filtering and exit status.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a source position and a message. Category
// and suggested fixes from the upstream shape are omitted — the suite
// keys suppression off the analyzer name instead.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
