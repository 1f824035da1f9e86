package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// iterFiles are the files that produce or consume single-use iterators
// (mr.Iter and its concrete implementations: record iterators, group
// iterators, the result pipe). The streaming data plane's contract is
// that a consumed iterator is dead — Next after exhaustion returns
// ok=false forever and Close is terminal — so no caller may drain one
// twice.
func iterFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, pat := range []string{
		"../mr/*.go", "../groupx/*.go",
		"../sortx/*.go", "../core/*.go",
	} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range m {
			if !strings.HasSuffix(f, "_test.go") {
				files = append(files, f)
			}
		}
	}
	if len(files) < 8 {
		t.Fatalf("iterator globs matched only %v — layout changed?", files)
	}
	return files
}

// TestNoIteratorReuse enforces the single-use iterator contract
// statically: within one function scope, an iterator held in a plain
// local variable must not be (a) drained by two sibling loops — the
// second loop reads an exhausted stream and silently sees nothing — or
// (b) advanced with Next after a statement-level Close — Close releases
// the underlying resources (spill FDs, block buffers), so a later Next
// reads a latched ok=false at best. Deferred Closes are the idiomatic
// cleanup and exempt; each function literal is its own scope (map and
// reduce closures get fresh iterators per call). The check is name-based
// — selector-chained receivers like p.cur.Next are combinator internals
// with their own state machines and are skipped — so it guards the
// straightforward reuse mistake, not aliasing through fields.
func TestNoIteratorReuse(t *testing.T) {
	fset := token.NewFileSet()
	for _, file := range iterFiles(t) {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkIterScope(t, fset, fd.Body)
			}
		}
	}
}

// identMethodCall matches `name.method(...)` on a plain identifier
// receiver and returns the name.
func identMethodCall(n ast.Node, method string) (string, *ast.CallExpr) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return "", nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", nil
	}
	return id.Name, call
}

// inspectScope is ast.Inspect that does not descend into nested function
// literals (independent scopes).
func inspectScope(root ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		return fn(n)
	})
}

func checkIterScope(t *testing.T, fset *token.FileSet, body *ast.BlockStmt) {
	// Nested function literals are independent scopes; recurse.
	inspectScope(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			checkIterScope(t, fset, fl.Body)
			return false
		}
		return true
	})

	// (b) Next after statement-level Close.
	closedAt := map[string]token.Pos{}
	inspectScope(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.DeferStmt); ok {
			return false // deferred Close is cleanup, not consumption
		}
		if name, call := identMethodCall(n, "Close"); call != nil {
			if p, seen := closedAt[name]; !seen || call.Pos() < p {
				closedAt[name] = call.Pos()
			}
		}
		return true
	})
	inspectScope(body, func(n ast.Node) bool {
		if name, call := identMethodCall(n, "Next"); call != nil {
			if cp, ok := closedAt[name]; ok && call.Pos() > cp {
				t.Errorf("%s: %s.Next after %s.Close (closed at %s) — a closed iterator is dead",
					fset.Position(call.Pos()), name, name, fset.Position(cp))
			}
		}
		return true
	})

	// (a) Two sibling loops draining the same iterator. Only the
	// outermost loop advancing a name counts — a nested refill loop is
	// part of the same single consumption.
	drains := map[string][]token.Pos{}
	var scanLoops func(root ast.Node, active map[string]bool)
	scanLoops = func(root ast.Node, active map[string]bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if n == root {
				return true
			}
			switch n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt, *ast.RangeStmt:
				names := map[string]bool{}
				inspectScope(n, func(m ast.Node) bool {
					if name, call := identMethodCall(m, "Next"); call != nil {
						names[name] = true
					}
					return true
				})
				inner := map[string]bool{}
				for k := range active {
					inner[k] = true
				}
				for name := range names {
					if !active[name] {
						drains[name] = append(drains[name], n.Pos())
					}
					inner[name] = true
				}
				scanLoops(n, inner)
				return false
			}
			return true
		})
	}
	scanLoops(body, map[string]bool{})
	for name, loops := range drains {
		if len(loops) > 1 {
			positions := make([]string, len(loops))
			for i, p := range loops {
				positions[i] = fset.Position(p).String()
			}
			t.Errorf("iterator %q drained by %d sibling loops (%s) — single-use contract: the second drain sees an exhausted stream",
				name, len(loops), strings.Join(positions, ", "))
		}
	}
}
