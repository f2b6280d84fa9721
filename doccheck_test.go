package pmgard

// Source-level gates over the library packages. Documentation coverage:
// every exported identifier must carry a doc comment, which keeps the public
// surface (and the internal packages that examples and downstream forks
// read) documented as the code evolves. Call surface: one exported name per
// operation.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// walkLibraryFiles parses every non-test Go file of the library packages —
// everything but commands, examples, the benchmark driver and testdata —
// and hands it to visit.
func walkLibraryFiles(t *testing.T, visit func(path string, file *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The walk root is itself named "."; only hidden directories
			// below it are skipped.
			name := d.Name()
			if name == "testdata" || name == "examples" || name == "benchmark" || (path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if file.Name.Name == "main" {
			return nil // command entry points are documented at package level
		}
		visit(path, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllExportedIdentifiersDocumented(t *testing.T) {
	var undocumented []string
	walkLibraryFiles(t, func(path string, file *ast.File) {
		for _, decl := range file.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if dd.Name.IsExported() && dd.Doc.Text() == "" {
					undocumented = append(undocumented,
						path+": func "+dd.Name.Name)
				}
			case *ast.GenDecl:
				groupDoc := dd.Doc.Text()
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && groupDoc == "" && sp.Doc.Text() == "" && sp.Comment.Text() == "" {
							undocumented = append(undocumented,
								path+": type "+sp.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() && groupDoc == "" && sp.Doc.Text() == "" && sp.Comment.Text() == "" {
								undocumented = append(undocumented,
									path+": "+n.Name)
							}
						}
					}
				}
			}
		}
	})
	if len(undocumented) > 0 {
		t.Fatalf("%d exported identifiers lack doc comments:\n  %s",
			len(undocumented), strings.Join(undocumented, "\n  "))
	}
}

// variantSuffixes are the name endings that mark a function as "the same
// operation, plus one more parameter" (DESIGN.md §4, call surface).
var variantSuffixes = []string{"Workers", "Obs", "Ctx", "Metrics", "From"}

// variantBases returns every name reachable from name by stripping one or
// more trailing variantSuffixes: RunMetricsCtx → RunMetrics, Run.
func variantBases(name string) []string {
	var bases []string
	for _, suf := range variantSuffixes {
		if base := strings.TrimSuffix(name, suf); base != name && base != "" {
			bases = append(bases, base)
			bases = append(bases, variantBases(base)...)
		}
	}
	return bases
}

// TestOneNamePerOperation keeps the call surface from re-growing twins: in
// a library package no two exported functions (or two methods of one type)
// may differ only by a trailing Workers, Obs, Ctx, Metrics or From, or a
// concatenation of these (GetOrFetch / GetOrFetchFromCtx, Run /
// RunMetricsCtx). A new parameter goes into the one function; new behaviour
// replaces the old name.
func TestOneNamePerOperation(t *testing.T) {
	// names[scope] is the exported function names of one package directory,
	// or of one receiver type in it.
	names := map[string]map[string]bool{}
	walkLibraryFiles(t, func(path string, file *ast.File) {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			scope := filepath.Dir(path)
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					scope += "." + id.Name
				}
			}
			if names[scope] == nil {
				names[scope] = map[string]bool{}
			}
			names[scope][fn.Name.Name] = true
		}
	})
	var pairs []string
	for scope, set := range names {
		for name := range set {
			for _, base := range variantBases(name) {
				if set[base] {
					pairs = append(pairs, scope+": "+base+" / "+name)
				}
			}
		}
	}
	if len(pairs) > 0 {
		sort.Strings(pairs)
		t.Fatalf("%d exported twins differ only by a parameter suffix; fold the parameter into one function:\n  %s",
			len(pairs), strings.Join(pairs, "\n  "))
	}
}
