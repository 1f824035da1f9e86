// Package lint holds repo-policy tests: cheap static checks that guard
// invariants the type system can't express.
package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// hotFiles are the files whose per-record loops form the shuffle/group
// hot path. The zero-copy refactor removed every per-record string
// materialization from them; this lint keeps it that way.
func hotFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, pat := range []string{"../mr/run.go", "../groupx/*.go"} {
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
	if len(files) < 3 {
		t.Fatalf("hot-file globs matched only %v — layout changed?", files)
	}
	return files
}

// TestNoStringConversionsInHotLoops fails if a string(...) conversion
// reappears inside any for/range loop of the hot-path files. The
// m[string(b)] map-probe form is allowed: the compiler elides that
// allocation, and probing (with materialization only on insert) is
// exactly the idiom the byte-keyed plane is built on. Anything else —
// building a string key per record, comparing via string(...), passing
// string(...) to a callee — puts a per-record allocation back on the
// path this repo's Figure 4 numbers depend on; keep keys as []byte or
// hoist the conversion out of the loop.
func TestNoStringConversionsInHotLoops(t *testing.T) {
	fset := token.NewFileSet()
	for _, file := range hotFiles(t) {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}

		// The allowed form: a string(...) conversion used directly as a
		// map index (read, insert, or delete).
		allowed := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if ix, ok := n.(*ast.IndexExpr); ok {
				if call, ok := ix.Index.(*ast.CallExpr); ok && isStringConv(call) {
					allowed[call] = true
				}
			}
			return true
		})

		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && isStringConv(call) && !allowed[call] {
					t.Errorf("%s: string(...) conversion in a hot loop — keep keys as []byte (map probes m[string(b)] are the one allowed form)",
						fset.Position(call.Pos()))
				}
				return true
			})
			return true
		})
	}
}

func isStringConv(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "string" && len(call.Args) == 1
}

// schedulerOwnedDirs are the packages whose concurrency is owned by the
// exec runtime: every concurrent task must be submitted through an
// exec.Group (Go for pooled tasks, GoService for drain loops) so it is
// bounded by the shared pool, error-collected with its task label, and
// torn down on cancellation. A naked `go func` here escapes all three.
func schedulerOwnedFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, pat := range []string{"../mr/*.go", "../core/*.go"} {
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
	if len(files) < 4 {
		t.Fatalf("scheduler-owned globs matched only %v — layout changed?", files)
	}
	return files
}

// TestNoNakedGoroutinesInSchedulerOwnedPackages fails if a `go`
// statement appears in non-test files of internal/mr or internal/core.
// Those packages run their concurrency on the shared exec.Executor;
// goroutines spawned outside it are invisible to job teardown (they
// outlive cancellation), uncounted by the pool's admission limits, and
// drop their errors on the floor. Route new concurrency through
// Group.Go / Group.GoService instead.
func TestNoNakedGoroutinesInSchedulerOwnedPackages(t *testing.T) {
	fset := token.NewFileSet()
	for _, file := range schedulerOwnedFiles(t) {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: naked go statement in a scheduler-owned package — submit tasks via exec.Group (Go/GoService)",
					fset.Position(g.Pos()))
			}
			return true
		})
	}
}
