package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "github.com/casm-project/casm"

// testOnlyAllowed lists the exported names under internal/ that no
// non-test file references and that stay anyway. Keys are
// "<package dir>.<Name>" for funcs and types, "<package dir>.<Type>.<Method>"
// for methods. Every entry says why it stays.
var testOnlyAllowed = map[string]string{
	// References and closed forms that tests hold production code against.
	"internal/stats.MonteCarloMaxBinCount":            "simulation ExpectedMaxBinCount is validated against",
	"internal/core.Engine.RunComponentAtATimeContext": "the introduction's naive baseline the engine is compared with (bench_test.go)",
	"internal/localeval.SortRecords":                  "sort of the reference evaluator in reference_test.go",
	"internal/distkey.BlockMapper.Owner":              "the owning block the ownership tests state and Session.Owns is tested against",
	"internal/distkey.BlockMapper.ReplicationFactor":  "the paper's (d+cf)/cf, which tests pin measured duplication to",
	"internal/distkey.Generalizes":                    "Theorem 1's order on keys, the property the key tests state",
	"internal/cube.Schema.Meet":                       "region algebra the property tests and fuzzers generate workflows with",
	"internal/cube.Schema.RegionOf":                   "region algebra the ownership tests are written in",
	"internal/cube.Schema.ParentRegion":               "region algebra the hierarchy tests are written in",
	"internal/cube.Schema.ContainsRegion":             "region algebra the hierarchy tests are written in",
	"internal/workflow.Workflow.HasSibling":           "what the suite tests assert about which queries need an overlapping key",
	// Fault injection: the failure and fault-matrix tests take nodes down.
	"internal/blockstore.Store.FailNode":    "fault injection",
	"internal/blockstore.Store.RecoverNode": "fault injection",
	// Test conveniences over a production entry point.
	"internal/mr.Run":                         "RunContext without a context, the entry point of the mr tests",
	"internal/mr.JobStats.TotalOutputRecords": "sum the streaming tests check output accounting with",
	"internal/optimizer.ScoreKey":             "scores the key a test pins, in place of the optimizer's (engine tests, bench_test.go's overlap ablation)",
}

// modFile is one parsed non-test file of the module.
type modFile struct {
	dir     string            // slash-separated, relative to the module root
	imports map[string]string // local name -> package dir, module-internal imports only
	ast     *ast.File
}

// parseModule parses every non-test .go file of the module.
func parseModule(t *testing.T, fset *token.FileSet) []modFile {
	t.Helper()
	root := filepath.Join("..", "..")
	var files []modFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		mf := modFile{dir: filepath.ToSlash(rel), imports: map[string]string{}, ast: f}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(p, modulePath+"/")
			if p == modulePath {
				dir, ok = ".", true
			}
			if !ok {
				continue
			}
			name := p[strings.LastIndexByte(p, '/')+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			mf.imports[name] = dir
		}
		files = append(files, mf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 80 {
		t.Fatalf("module walk found only %d non-test files — layout changed?", len(files))
	}
	return files
}

// TestNoTestOnlyExports fails when an exported func, type or method
// declared under internal/ is referenced by no non-test file of the
// module: such a name is API that only its own tests keep alive, and it
// is how a package grows a combinator library nothing runs. The check is
// name-based, like TestNoIteratorReuse: a func or type counts as used
// when its name appears as a bare identifier elsewhere in its own
// package or as pkg.Name in a file importing that package; a method
// counts as used when any non-test file selects .Name on anything (the
// receiver's type is not resolved), so it under-reports methods that
// share a name with a used one. A method no file selects is accepted
// when its name is declared in an interface somewhere in the module: it
// is there to satisfy that interface.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	files := parseModule(t, fset)

	type decl struct {
		key    string // allowlist key
		dir    string
		name   string
		method bool
		pos    token.Pos
	}
	var decls []decl
	notRef := map[*ast.Ident]bool{} // identifiers that declare or select, not reference
	ifaceMethods := map[string]bool{}
	for _, mf := range files {
		for _, d := range mf.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				notRef[d.Name] = true
				if !strings.HasPrefix(mf.dir, "internal/") || !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls = append(decls, decl{mf.dir + "." + d.Name.Name, mf.dir, d.Name.Name, false, d.Pos()})
					continue
				}
				if recv := recvTypeName(d.Recv.List[0].Type); ast.IsExported(recv) {
					decls = append(decls, decl{mf.dir + "." + recv + "." + d.Name.Name, mf.dir, d.Name.Name, true, d.Pos()})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					notRef[ts.Name] = true
					if strings.HasPrefix(mf.dir, "internal/") && ts.Name.IsExported() {
						decls = append(decls, decl{mf.dir + "." + ts.Name.Name, mf.dir, ts.Name.Name, false, ts.Pos()})
					}
				}
			}
		}
		ast.Inspect(mf.ast, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
	}

	used := map[string]bool{}     // "<dir>.<Name>": func or type referenced
	selected := map[string]bool{} // method or field name selected on anything
	for _, mf := range files {
		ast.Inspect(mf.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				notRef[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := mf.imports[x.Name]; ok {
						used[dir+"."+n.Sel.Name] = true
					}
				}
			case *ast.Field: // struct fields, parameters, interface methods
				for _, name := range n.Names {
					notRef[name] = true
				}
			case *ast.KeyValueExpr: // a field key; no func or type can be a map key
				if k, ok := n.Key.(*ast.Ident); ok {
					notRef[k] = true
				}
			case *ast.Ident:
				if !notRef[n] {
					used[mf.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	seenAllowed := map[string]bool{}
	var bad []string
	for _, d := range decls {
		ok := used[d.dir+"."+d.name]
		if d.method {
			ok = selected[d.name] || ifaceMethods[d.name]
		}
		if _, allowed := testOnlyAllowed[d.key]; allowed {
			seenAllowed[d.key] = true
			if ok {
				t.Errorf("%s is allowlisted as test-only but non-test code references it — drop the entry", d.key)
			}
			continue
		}
		if !ok {
			bad = append(bad, fset.Position(d.pos).String()+": "+d.key)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s is exported but referenced by no non-test file — delete it, unexport it, or allowlist it with a reason", b)
	}
	for key := range testOnlyAllowed {
		if !seenAllowed[key] {
			t.Errorf("allowlist entry %s names nothing declared under internal/", key)
		}
	}
}

// testOnlySettings lists the exported fields of settings structs under
// internal/ that no program sets and that stay anyway, keyed
// "<package dir>.<Type>.<Field>". Every entry says why it stays.
var testOnlySettings = map[string]string{
	"internal/figures.Config.Reducers": "the unit tests run the panels at 4 reducers",
}

// TestNoTestOnlySettings fails when an exported field of a settings struct
// under internal/ (one named Options or *Config) is set by no program, no
// non-test file outside its package and examples/: a knob only tests
// turn. A field is set when it keys a literal of its struct (or of an
// alias), or when such a file keys an element literal elided in a slice
// or map literal, or assigns a selector, of the field's name and its own
// package has no settings field of that name. The name-based rules, like
// TestNoTestOnlyExports, under-report.
func TestNoTestOnlySettings(t *testing.T) {
	fset := token.NewFileSet()
	files := parseModule(t, fset)
	typeKey := func(mf modFile, e ast.Expr) string { // "<dir>.<Type>" that e names
		switch e := e.(type) {
		case *ast.Ident:
			return mf.dir + "." + e.Name
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok && mf.imports[x.Name] != "" {
				return mf.imports[x.Name] + "." + e.Sel.Name
			}
		}
		return ""
	}
	dirOf := func(key string) string { return key[:strings.LastIndexByte(key, '.')] }

	fields := map[string]token.Pos{} // "<dir>.<Type>.<Field>" -> its declaration
	own := map[string]bool{}         // "<dir>.<Field>" of the same fields
	alias := map[string]string{}     // "<dir>.<Name>" -> the type it aliases
	for _, mf := range files {
		ast.Inspect(mf.ast, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			key, name := mf.dir+"."+ts.Name.Name, ts.Name.Name
			if ts.Assign.IsValid() {
				alias[key] = typeKey(mf, ts.Type)
			}
			if st, ok := ts.Type.(*ast.StructType); ok && strings.HasPrefix(mf.dir, "internal/") &&
				ts.Name.IsExported() && (name == "Options" || strings.HasSuffix(name, "Config")) {
				for _, f := range st.Fields.List {
					for _, n := range f.Names {
						if n.IsExported() {
							fields[key+"."+n.Name], own[mf.dir+"."+n.Name] = n.Pos(), true
						}
					}
				}
			}
			return false
		})
	}

	set := map[string]bool{}          // fields keyed in a literal outside their package
	assigned := map[string][]string{} // field name -> dirs setting it by name only
	for _, mf := range files {
		if strings.HasPrefix(mf.dir+"/", "examples/") {
			continue
		}
		ast.Inspect(mf.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				key := typeKey(mf, n.Type)
				for alias[key] != "" {
					key = alias[key]
				}
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					k, ok := kv.Key.(*ast.Ident)
					switch {
					case !ok:
					case n.Type == nil && !own[mf.dir+"."+k.Name]: // elided in a slice or map literal
						assigned[k.Name] = append(assigned[k.Name], mf.dir)
					case key != "" && dirOf(key) != mf.dir:
						set[key+"."+k.Name] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && !own[mf.dir+"."+sel.Sel.Name] {
						assigned[sel.Sel.Name] = append(assigned[sel.Sel.Name], mf.dir)
					}
				}
			}
			return true
		})
	}

	var bad []string
	for key, pos := range fields {
		ok := set[key]
		for _, dir := range assigned[key[strings.LastIndexByte(key, '.')+1:]] {
			ok = ok || dir != dirOf(dirOf(key))
		}
		switch _, allowed := testOnlySettings[key]; {
		case allowed && ok:
			bad = append(bad, key+" is allowlisted as test-only but a program sets it — drop the entry")
		case !allowed && !ok:
			bad = append(bad, fset.Position(pos).String()+": "+key+" is a setting no program sets — delete it, make it an unexported test seam, or allowlist it with a reason")
		}
	}
	for key := range testOnlySettings {
		if _, ok := fields[key]; !ok {
			bad = append(bad, "allowlist entry "+key+" names no settings field under internal/")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// recvTypeName unwraps *T and T[P] receivers to T.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
