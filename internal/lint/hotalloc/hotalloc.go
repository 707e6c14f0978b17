// Package hotalloc implements the lbcheck analyzer that keeps the
// per-event fast paths allocation-free. Functions opt in with a
// //churnlb:hotpath directive in their doc comment: the simulator
// event handlers, the load-index heap operations, Route
// implementations, FailurePlan episode application, the calendar
// queue push/pop, and the live daemon's admit → frame → decode path.
// Those run millions of times per Monte-Carlo sweep (or per second);
// a single fmt.Sprintf or un-hoisted closure in one of them shows up
// directly in the ns/op gates CI enforces.
//
// Inside an annotated function the analyzer flags the constructs that
// reliably allocate:
//
//   - fmt.* calls (formatting allocates; panic(fmt.Sprintf(...)) is
//     exempt — a panic path is by definition cold);
//   - function literals that are not invoked immediately (each
//     evaluation allocates a closure; hoist it or use a method value
//     bound at construction time);
//   - make/new and slice/map/&struct composite literals;
//   - append whose destination is a function-local slice (per-call
//     growth; appends into caller-provided or struct-owned scratch
//     reuse an amortized backing array and are allowed);
//   - boxing an integer, float or bool into an interface (argument or
//     assignment), which allocates once the value leaves the
//     small-int cache.
//
// The check is not transitive: callees need their own annotation.
// Escape hatch: //lint:ignore hotalloc <reason>.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"churnlb/internal/lint/analysis"
	"churnlb/internal/lint/astwalk"
)

// Directive marks a function as a checked hot path.
const Directive = "//churnlb:hotpath"

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flag allocation-introducing constructs in //churnlb:hotpath functions\n\n" +
		"Flags fmt.* calls, un-hoisted closures, make/new/composite literals,\n" +
		"append to function-local slices, and interface boxing of scalars inside\n" +
		"annotated functions. Suppress a reviewed allocation with\n" +
		"//lint:ignore hotalloc <reason>.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotpath(fn) {
				continue
			}
			checkBody(pass, fn)
		}
	}
	return nil, nil
}

// isHotpath reports whether the function's doc group carries the
// //churnlb:hotpath directive.
func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == Directive || strings.HasPrefix(c.Text, Directive+" ") {
			return true
		}
	}
	return false
}

// checker walks one annotated function body.
type checker struct {
	pass    *analysis.Pass
	fn      *ast.FuncDecl
	parents map[ast.Node]ast.Node
	// locals are slice variables declared inside the function body;
	// appending to one grows a per-call backing array.
	locals map[types.Object]bool
}

func checkBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	c := &checker{
		pass:    pass,
		fn:      fn,
		parents: astwalk.Parents(fn),
		locals:  localSlices(pass, fn),
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			c.call(x)
		case *ast.FuncLit:
			c.funcLit(x)
		case *ast.CompositeLit:
			c.compositeLit(x)
		case *ast.AssignStmt:
			c.assign(x)
		}
		return true
	})
}

// localSlices collects slice-typed variables declared in the body
// (params and receiver excluded: caller-provided scratch is the
// sanctioned pattern for returning variable-length results).
func localSlices(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	locals := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		o := pass.TypesInfo.Defs[id]
		if o == nil {
			return true
		}
		if _, isSlice := o.Type().Underlying().(*types.Slice); isSlice {
			locals[o] = true
		}
		return true
	})
	return locals
}

func (c *checker) call(call *ast.CallExpr) {
	// fmt.* in a hot path — unless feeding a panic, which is cold.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := c.pass.TypesInfo.Uses[id].(*types.PkgName); ok &&
				pn.Imported().Path() == "fmt" && !c.inPanic(call) {
				c.pass.Reportf(call.Pos(), "fmt.%s in hot path %s allocates per call; "+
					"format outside the hot path or //lint:ignore hotalloc <reason>",
					sel.Sel.Name, c.fn.Name.Name)
				return
			}
		}
	}

	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		c.boxedArgs(call)
		return
	}
	b, isBuiltin := c.pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	if !isBuiltin {
		c.boxedArgs(call)
		return
	}
	switch b.Name() {
	case "make", "new":
		if !c.inPanic(call) {
			c.pass.Reportf(call.Pos(), "%s in hot path %s allocates per call; "+
				"hoist the buffer into the owning struct or //lint:ignore hotalloc <reason>",
				b.Name(), c.fn.Name.Name)
		}
	case "append":
		c.append(call)
	}
}

// append flags growth of function-local slices only: appends into a
// caller-provided dst or a struct-owned scratch field amortize their
// backing array across calls and stay allowed.
func (c *checker) append(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	if o := c.pass.TypesInfo.ObjectOf(dst); o != nil && c.locals[o] {
		c.pass.Reportf(call.Pos(), "append to function-local slice %s in hot path %s "+
			"grows a per-call backing array; use a caller-provided or struct-owned "+
			"scratch buffer, or //lint:ignore hotalloc <reason>", dst.Name, c.fn.Name.Name)
	}
}

// funcLit flags closures that are not invoked on the spot: each
// evaluation allocates, and the capture set usually forces a heap
// escape too.
func (c *checker) funcLit(fl *ast.FuncLit) {
	if call, ok := c.parents[fl].(*ast.CallExpr); ok && call.Fun == fl {
		return // immediately invoked: the literal itself need not escape
	}
	c.pass.Reportf(fl.Pos(), "closure in hot path %s allocates per call; "+
		"hoist it to a method or package function, or //lint:ignore hotalloc <reason>",
		c.fn.Name.Name)
}

// compositeLit flags slice, map and pointer-to-struct literals; a
// plain struct value stays on the stack and is allowed.
func (c *checker) compositeLit(cl *ast.CompositeLit) {
	if c.inPanic(cl) {
		return
	}
	t := c.pass.TypesInfo.TypeOf(cl)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		c.pass.Reportf(cl.Pos(), "%s literal in hot path %s allocates per call; "+
			"hoist it or //lint:ignore hotalloc <reason>", kindName(t), c.fn.Name.Name)
		return
	}
	if u, ok := c.parents[cl].(*ast.UnaryExpr); ok && u.Op.String() == "&" {
		c.pass.Reportf(u.Pos(), "&composite literal in hot path %s allocates per call; "+
			"reuse a pooled or struct-owned value, or //lint:ignore hotalloc <reason>",
			c.fn.Name.Name)
	}
}

func kindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	default:
		return "composite"
	}
}

// assign flags interface boxing of scalar values on assignment.
func (c *checker) assign(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		lt := c.pass.TypesInfo.TypeOf(as.Lhs[i])
		if lt == nil {
			continue
		}
		c.boxed(rhs, lt, "assignment")
	}
}

// boxedArgs flags scalar arguments passed to interface parameters.
func (c *checker) boxedArgs(call *ast.CallExpr) {
	if c.inPanic(call) {
		return
	}
	sigT := c.pass.TypesInfo.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			c.boxed(arg, pt, "argument")
		}
	}
}

// boxed reports e when it is a scalar expression converted to an
// interface-typed destination.
func (c *checker) boxed(e ast.Expr, dst types.Type, what string) {
	if !types.IsInterface(dst) {
		return
	}
	et := c.pass.TypesInfo.TypeOf(e)
	if et == nil {
		return
	}
	b, ok := et.Underlying().(*types.Basic)
	if !ok {
		return
	}
	if b.Info()&(types.IsInteger|types.IsFloat|types.IsBoolean) == 0 {
		return
	}
	if c.inPanic(e) {
		return
	}
	c.pass.Reportf(e.Pos(), "%s boxes %s into interface %s in hot path %s, allocating "+
		"per call; keep the concrete type or //lint:ignore hotalloc <reason>",
		what, et.String(), dst.String(), c.fn.Name.Name)
}

// inPanic reports whether n sits inside a panic(...) call: panic paths
// are cold by construction and exempt from allocation checks.
func (c *checker) inPanic(n ast.Node) bool {
	for p := c.parents[n]; p != nil; p = c.parents[p] {
		call, ok := p.(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok && b.Name() == "panic" {
				return true
			}
		}
	}
	return false
}
