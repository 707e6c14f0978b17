// Package maporder implements the lbcheck analyzer that flags `range`
// over a map inside the deterministic packages, the classic source of
// float-accumulation-order and event-scheduling-order bugs: map
// iteration order is randomized per run, so any observable that
// depends on visit order silently de-pins the goldens.
//
// A map range is accepted only when its effect provably cannot depend
// on iteration order:
//
//   - the collect-then-sort idiom: the body only appends the key (or
//     key/value records) to a slice that is subsequently passed to a
//     sort.* or slices.Sort* call later in the same function;
//   - keyed-slot writes: every statement writes through the range key
//     into a distinct structure (out[k] = f(v), delete(other, k)), so
//     each iteration touches storage no other iteration reads;
//   - commutative integer accumulation (n += v, count++), which is
//     order-insensitive in exact arithmetic — the float analogue is
//     not, and stays flagged.
//
// Anything else needs sorted keys or an explicit
// //lint:ignore maporder <reason>.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"churnlb/internal/lint/analysis"
	"churnlb/internal/lint/astwalk"
)

// Analyzer is the maporder pass.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag range over maps in deterministic packages unless provably order-insensitive\n\n" +
		"Map iteration order is randomized; sort the keys first, keep the body\n" +
		"to keyed-slot writes / integer accumulation, or suppress a reviewed\n" +
		"loop with //lint:ignore maporder <reason>.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		parents := astwalk.Parents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if orderInsensitive(pass, rs) || collectThenSort(pass, rs, parents) {
				return true
			}
			pass.Reportf(rs.Pos(), "range over map has nondeterministic iteration order; "+
				"iterate sorted keys, restrict the body to keyed-slot writes, or "+
				"//lint:ignore maporder <reason>")
			return true
		})
	}
	return nil, nil
}

// rootObj returns the object of the leftmost identifier of a chain of
// selections/indexes (the storage being addressed), or nil.
func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// hasCall reports whether e contains any function call other than type
// conversions and the pure builtins len/cap/min/max.
func hasCall(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap", "min", "max":
					return true
				}
			}
		}
		found = true
		return false
	})
	return found
}

// isInteger reports whether t is an integer type (the commutative,
// exact accumulators; floats are order-sensitive and excluded).
func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// orderInsensitive reports whether every statement of the range body
// is one of the allowed order-insensitive forms.
func orderInsensitive(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	keyObj := keyObject(pass, rs)
	rangedObj := rootObj(pass, rs.X)
	if len(rs.Body.List) == 0 {
		return false // an empty body ranges for nothing; make it explicit
	}
	for _, st := range rs.Body.List {
		if !orderInsensitiveStmt(pass, st, keyObj, rangedObj) {
			return false
		}
	}
	return true
}

// keyObject returns the object of the range key variable, or nil when
// the key is blank or absent.
func keyObject(pass *analysis.Pass, rs *ast.RangeStmt) types.Object {
	id, ok := rs.Key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}

func orderInsensitiveStmt(pass *analysis.Pass, st ast.Stmt, keyObj, rangedObj types.Object) bool {
	switch s := st.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		lhs, rhs := s.Lhs[0], s.Rhs[0]
		if hasCall(pass, rhs) {
			return false
		}
		switch s.Tok {
		case token.ASSIGN, token.DEFINE:
			return keyedSlotWrite(pass, lhs, keyObj, rangedObj)
		case token.ADD_ASSIGN, token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
			// Commutative, associative integer accumulation only.
			t := pass.TypesInfo.TypeOf(lhs)
			return t != nil && isInteger(t) && !hasCall(pass, lhs)
		default:
			return keyedSlotWrite(pass, lhs, keyObj, rangedObj) // other op-assigns need a keyed slot
		}
	case *ast.IncDecStmt:
		t := pass.TypesInfo.TypeOf(s.X)
		return t != nil && isInteger(t) && !hasCall(pass, s.X)
	case *ast.ExprStmt:
		// delete(other, k) removes each visited key from a distinct map.
		call, ok := s.X.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "delete" {
			return false
		}
		argKey, ok := call.Args[1].(*ast.Ident)
		if !ok || keyObj == nil || pass.TypesInfo.ObjectOf(argKey) != keyObj {
			return false
		}
		target := rootObj(pass, call.Args[0])
		return target != nil && target != rangedObj
	default:
		return false
	}
}

// keyedSlotWrite reports whether lhs addresses storage[k] for the
// range key k in a structure distinct from the ranged map — each
// iteration then writes a slot no other iteration touches.
func keyedSlotWrite(pass *analysis.Pass, lhs ast.Expr, keyObj, rangedObj types.Object) bool {
	ix, ok := lhs.(*ast.IndexExpr)
	if !ok || keyObj == nil {
		return false
	}
	id, ok := ix.Index.(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(id) != keyObj {
		return false
	}
	base := rootObj(pass, ix.X)
	return base != nil && base != rangedObj
}

// collectThenSort recognizes the repaired idiom's first half: a body
// that only appends the key (or key/value records) into a slice which
// a later statement of the same function passes to sort.*/slices.*.
func collectThenSort(pass *analysis.Pass, rs *ast.RangeStmt, parents map[ast.Node]ast.Node) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	s, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || s.Tok != token.ASSIGN || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return false
	}
	dst, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.TypesInfo.ObjectOf(fn).(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(first) != pass.TypesInfo.ObjectOf(dst) {
		return false
	}
	// The appended elements may mention only the key/value variables
	// (idents, composite literals, conversions — no other calls).
	for _, a := range call.Args[1:] {
		if hasCall(pass, a) {
			return false
		}
	}
	// A later statement in the enclosing function must sort the slice.
	fnBody := enclosingFuncBody(rs, parents)
	if fnBody == nil {
		return false
	}
	dstObj := pass.TypesInfo.ObjectOf(dst)
	sorted := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if sorted {
			return false
		}
		c, ok := n.(*ast.CallExpr)
		if !ok || c.Pos() < rs.End() {
			return true
		}
		sel, ok := c.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		switch pn.Imported().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, a := range c.Args {
			mentioned := false
			ast.Inspect(a, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == dstObj {
					mentioned = true
					return false
				}
				return true
			})
			if mentioned {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}

// enclosingFuncBody climbs to the innermost function containing n.
func enclosingFuncBody(n ast.Node, parents map[ast.Node]ast.Node) *ast.BlockStmt {
	for p := parents[n]; p != nil; p = parents[p] {
		switch fn := p.(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}
