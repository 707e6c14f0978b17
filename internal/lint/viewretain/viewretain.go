// Package viewretain implements the lbcheck analyzer that enforces the
// model.StateView lifetime contract: a view parameter is a zero-copy
// window onto the realisation's working arrays, valid only for the
// duration of the call it was passed to. Storing one — in a struct
// field, a package variable, a container, or a closure that escapes
// the call — retains a window onto memory the simulator mutates at
// every event, which is exactly the stale-view bug the PR-4 Policy
// migration documented. Code that must keep what it saw copies it:
// model.AsState(v).Clone(), or accepts the retainable SnapshotView
// traced runs hand out.
//
// The analyzer tracks each StateView-typed parameter (and its direct
// local aliases) through the function body and flags:
//
//   - assignments that store the view (or a composite/slice/method
//     value built from it, or an un-Cloned model.AsState result) into
//     a field, element, dereference or package variable;
//   - closures that capture the view and may outlive the call: go
//     statements and any function literal that is not invoked
//     immediately (deferred calls and sort/slices callbacks run inside
//     the frame and are allowed).
//
// Escape hatch: //lint:ignore viewretain <reason>.
package viewretain

import (
	"go/ast"
	"go/types"
	"strings"

	"churnlb/internal/lint/analysis"
	"churnlb/internal/lint/astwalk"
)

// Analyzer is the viewretain pass.
var Analyzer = &analysis.Analyzer{
	Name: "viewretain",
	Doc: "flag model.StateView parameters that outlive the call they were passed to\n\n" +
		"Views are zero-copy windows over live simulator state; retain a copy\n" +
		"via model.AsState(v).Clone() instead, or suppress a reviewed store\n" +
		"with //lint:ignore viewretain <reason>.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		parents := astwalk.Parents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Type, fn.Body, parents)
				}
			case *ast.FuncLit:
				checkFunc(pass, fn.Type, fn.Body, parents)
			}
			return true
		})
	}
	return nil, nil
}

// isStateView reports whether t is the model.StateView interface.
func isStateView(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "StateView" || named.Obj().Pkg() == nil {
		return false
	}
	p := named.Obj().Pkg().Path()
	return p == "model" || strings.HasSuffix(p, "internal/model")
}

// isAsState reports whether call invokes model.AsState, whose result
// may wrap a scratch buffer and is as unretainable as the view itself.
func isAsState(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "AsState" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	p := pn.Imported().Path()
	return p == "model" || strings.HasSuffix(p, "internal/model")
}

// checkFunc analyzes one function with at least one StateView param.
func checkFunc(pass *analysis.Pass, ft *ast.FuncType, body *ast.BlockStmt, parents map[ast.Node]ast.Node) {
	tracked := make(map[types.Object]bool)
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if o := pass.TypesInfo.Defs[name]; o != nil && isStateView(o.Type()) {
					tracked[o] = true
				}
			}
		}
	}
	if len(tracked) == 0 {
		return
	}

	// Propagate direct local aliases (x := v) to a fixpoint, so a
	// renamed view is tracked under its new name too.
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				o := pass.TypesInfo.ObjectOf(id)
				if o == nil || tracked[o] || !isLocal(pass, o) {
					continue
				}
				if aliasOf(pass, as.Rhs[i], tracked) {
					tracked[o] = true
					changed = true
				}
			}
			return true
		})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, x, tracked)
		case *ast.FuncLit:
			checkClosure(pass, x, tracked, parents)
		}
		return true
	})
}

// checkAssign flags stores of a retained view into anything that
// outlives the call: fields, elements, dereferences, package vars.
func checkAssign(pass *analysis.Pass, as *ast.AssignStmt, tracked map[types.Object]bool) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		if !retains(pass, as.Rhs[i], tracked) {
			continue
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			o := pass.TypesInfo.ObjectOf(l)
			if o != nil && !isLocal(pass, o) {
				pass.Reportf(as.Pos(), "StateView must not outlive the call: "+
					"storing it in package variable %s retains a window onto live simulator "+
					"state (keep model.AsState(v).Clone() instead)", l.Name)
			}
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			pass.Reportf(as.Pos(), "StateView must not outlive the call: "+
				"storing it through %s retains a window onto live simulator state "+
				"(keep model.AsState(v).Clone() instead)", lhsKind(lhs))
		}
	}
}

func lhsKind(e ast.Expr) string {
	switch e.(type) {
	case *ast.SelectorExpr:
		return "a struct field"
	case *ast.IndexExpr:
		return "a container element"
	case *ast.StarExpr:
		return "a pointer dereference"
	default:
		return "this location"
	}
}

// checkClosure flags function literals that capture a view and may run
// after the call returns.
func checkClosure(pass *analysis.Pass, fl *ast.FuncLit, tracked map[types.Object]bool, parents map[ast.Node]ast.Node) {
	captured := ""
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if o := pass.TypesInfo.Uses[id]; o != nil && tracked[o] {
				captured = id.Name
				return false
			}
		}
		return true
	})
	if captured == "" {
		return
	}
	parent := parents[fl]
	if call, ok := parent.(*ast.CallExpr); ok {
		if call.Fun == fl {
			// Immediately invoked (incl. defer): runs inside the frame —
			// unless launched as a goroutine, which outlives it.
			if _, isGo := parents[call].(*ast.GoStmt); !isGo {
				return
			}
		} else if syncCallback(pass, call) {
			return // sort.Slice-style synchronous callback
		}
	}
	pass.Reportf(fl.Pos(), "closure capturing StateView %s may outlive the call: "+
		"views are valid only for the duration of the call they were passed to "+
		"(capture model.AsState(v).Clone() instead)", captured)
}

// syncCallback reports whether call is into the sort/slices packages,
// whose callbacks run before the call returns.
func syncCallback(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	switch pn.Imported().Path() {
	case "sort", "slices":
		return true
	}
	return false
}

// retains reports whether evaluating e yields a value that still
// references a tracked view: the view itself, a bound method value, a
// composite/slice/pointer wrapping it, an interface conversion of it,
// or an un-Cloned model.AsState result. Results of other calls are
// treated as derived data (scalars read through the view are safe).
func retains(pass *analysis.Pass, e ast.Expr, tracked map[types.Object]bool) bool {
	switch x := e.(type) {
	case *ast.Ident:
		o := pass.TypesInfo.ObjectOf(x)
		return o != nil && tracked[o]
	case *ast.ParenExpr:
		return retains(pass, x.X, tracked)
	case *ast.UnaryExpr:
		return retains(pass, x.X, tracked)
	case *ast.TypeAssertExpr:
		return retains(pass, x.X, tracked)
	case *ast.SelectorExpr:
		// v.Queue as a method value binds v; field selection of a
		// wrapper keeps the wrapper alive too.
		return retains(pass, x.X, tracked)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if retains(pass, el, tracked) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		if tv, ok := pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() {
			// Conversion keeps identity (e.g. StateView(v)).
			return len(x.Args) == 1 && retains(pass, x.Args[0], tracked)
		}
		if isAsState(pass, x) {
			return len(x.Args) == 1 && retains(pass, x.Args[0], tracked)
		}
		if id, ok := x.Fun.(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok && b.Name() == "append" {
				for _, a := range x.Args {
					if retains(pass, a, tracked) {
						return true
					}
				}
			}
		}
		return false
	default:
		return false
	}
}

// isLocal reports whether o is function-local (declared inside some
// function scope rather than at package level).
func isLocal(pass *analysis.Pass, o types.Object) bool {
	return o.Parent() == nil || o.Parent() != pass.Pkg.Scope()
}

// aliasOf reports whether e is a direct alias of a tracked view
// (identity-preserving wrappers only).
func aliasOf(pass *analysis.Pass, e ast.Expr, tracked map[types.Object]bool) bool {
	switch x := e.(type) {
	case *ast.Ident:
		o := pass.TypesInfo.ObjectOf(x)
		return o != nil && tracked[o]
	case *ast.ParenExpr:
		return aliasOf(pass, x.X, tracked)
	case *ast.TypeAssertExpr:
		return aliasOf(pass, x.X, tracked)
	case *ast.CallExpr:
		if tv, ok := pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() {
			return len(x.Args) == 1 && aliasOf(pass, x.Args[0], tracked)
		}
	}
	return false
}
