// Package astwalk holds the syntax-tree walks the lbcheck analyzers
// share. It is the repository's own code, not part of the x/tools
// subset that internal/lint/analysis mirrors.
package astwalk

import "go/ast"

// Parents records the parent of every node below root, so a rule can
// climb from a node to its enclosing statement or function.
func Parents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
