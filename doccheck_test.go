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
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pmgard/internal/experiments"
)

// walkLibraryFiles parses every non-test Go file of the library packages —
// everything but commands, examples, the benchmark driver and testdata —
// and hands it to visit.
func walkLibraryFiles(t *testing.T, visit func(path string, file *ast.File)) {
	t.Helper()
	walkSourceFiles(t, true, visit)
}

// walkSourceFiles is walkLibraryFiles, with commands and examples included
// unless libraryOnly.
func walkSourceFiles(t *testing.T, libraryOnly bool, visit func(path string, file *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The walk root is itself named "."; only hidden directories
			// below it are skipped.
			name := d.Name()
			if name == "testdata" || (libraryOnly && name == "examples") || name == "benchmark" || (path != "." && strings.HasPrefix(name, ".")) {
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
		if libraryOnly && file.Name.Name == "main" {
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
			if recv := recvTypeName(fn); recv != "" {
				scope += "." + recv
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

// recvTypeName is the name of fn's receiver type, "" for a plain function.
func recvTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return ""
	}
	recv := fn.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// TestOneReadEngine keeps the read path from forking again: in
// internal/core exactly one function decodes bit-planes (DecodeLevel, or
// TransposeWords and bitplane.Decode, the words a decode goes through), one
// recomposes (Recompose / RecomposeInto) and one — a
// PlaneStore method, so every segment passes its manifest check first —
// inflates segments (lossless Codec.Decompress); and in the whole module
// outside benchmark/ one function derives the "<field>@<timestep>" cache
// namespace from a header's FieldName and Timestep, and the unit of fetch is
// a run of planes with no one-plane twin beside it (no FetchPlane next to
// Source.FetchPlanes, no GetRun next to Cache.Get).
func TestOneReadEngine(t *testing.T) {
	stages := map[string]string{
		"DecodeLevel": "decode", "TransposeWords": "decode", "Decode": "decode", "Recompose": "recompose", "RecomposeInto": "recompose", "Decompress": "inflate",
	}
	callers := map[string]map[string]bool{"decode": {}, "recompose": {}, "inflate": {}, "namespace": {}}
	var twins []string
	walkSourceFiles(t, false, func(path string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (id.Name == "FetchPlane" || id.Name == "GetRun") {
				twins = append(twins, path+": "+id.Name)
			}
			return true
		})
		inCore := filepath.ToSlash(filepath.Dir(path)) == "internal/core"
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			where := path + ": " + recvTypeName(fn) + "." + fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if stage, ok := stages[sel.Sel.Name]; ok && inCore {
					callers[stage][where] = true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fmt" && sel.Sel.Name == "Sprintf" && len(call.Args) == 3 {
					lit, _ := call.Args[0].(*ast.BasicLit)
					name, _ := call.Args[1].(*ast.SelectorExpr)
					step, _ := call.Args[2].(*ast.SelectorExpr)
					if lit != nil && lit.Value == `"%s@%d"` && name != nil && name.Sel.Name == "FieldName" && step != nil && step.Sel.Name == "Timestep" {
						callers["namespace"][where] = true
					}
				}
				return true
			})
		}
	})
	for stage, set := range callers {
		var names []string
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		if len(names) != 1 {
			t.Errorf("%s: %d functions, want exactly one:\n  %s", stage, len(names), strings.Join(names, "\n  "))
		}
		if stage == "inflate" && len(names) == 1 && !strings.Contains(names[0], ": PlaneStore.") {
			t.Errorf("inflate: %s is not a PlaneStore method", names[0])
		}
	}
	if len(twins) > 0 {
		t.Errorf("%d uses of the one-plane fetch's names; a plane is a run of one:\n  %s", len(twins), strings.Join(twins, "\n  "))
	}
}

// TestOneSegmentStore keeps the on-disk layouts from forking into two
// readers or two writer protocols again: in internal/storage exactly one
// method is named ReadSegment and exactly one function calls ReadAt — so
// every layout's bounds, short-read and checksum checks are the same code —
// and the names of the removed twin (the tiered directory's own store type
// and opener, its writer's set-meta-then-close protocol, core's second
// stream function) appear nowhere in the module outside benchmark/.
func TestOneSegmentStore(t *testing.T) {
	banned := map[string]bool{"TieredStore": true, "OpenTiered": true, "SetMeta": true, "streamToTiered": true}
	var readers, readAtCallers, twins []string
	walkSourceFiles(t, false, func(path string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && banned[id.Name] {
				twins = append(twins, path+": "+id.Name)
			}
			return true
		})
		if filepath.ToSlash(filepath.Dir(path)) != "internal/storage" {
			return
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			where := path + ": " + recvTypeName(fn) + "." + fn.Name.Name
			if fn.Recv != nil && fn.Name.Name == "ReadSegment" {
				readers = append(readers, where)
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "ReadAt" && !slices.Contains(readAtCallers, where) {
						readAtCallers = append(readAtCallers, where)
					}
				}
				return true
			})
		}
	})
	if len(readers) != 1 {
		t.Errorf("ReadSegment: %d methods, want exactly one:\n  %s", len(readers), strings.Join(readers, "\n  "))
	}
	if len(readAtCallers) != 1 {
		t.Errorf("ReadAt: called from %d functions, want exactly one:\n  %s", len(readAtCallers), strings.Join(readAtCallers, "\n  "))
	}
	if len(twins) > 0 {
		t.Errorf("%d uses of a removed twin's name:\n  %s", len(twins), strings.Join(twins, "\n  "))
	}
}

// TestOneServingPackage keeps the serving tier in one importable place and
// role out of it: cmd/serve is flag parsing only (at most 200 lines, no
// type, no method); no struct of internal/serve knows a Role or holds a
// *shard.Router (a field carries its own breaker cooldown, whichever
// wiring built it); the breaker-over-retry stack is assembled in one file
// (resilience.Guard); experiments and examples stand up nodes through
// internal/serve, never by hand; and the two options no caller ever set
// (RouterConfig.Retry, BreakerConfig.HalfOpenProbes) stay gone.
func TestOneServingPackage(t *testing.T) {
	var problems []string
	breakerSourceFiles := map[string]bool{}
	mainLines := 0
	walkSourceFiles(t, false, func(path string, file *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		inExperiments := dir == "internal/experiments"
		handBuilt := inExperiments || strings.HasPrefix(dir, "examples/")
		if dir == "cmd/serve" {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mainLines += strings.Count(string(src), "\n")
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if dir == "cmd/serve" && n.Recv != nil {
					problems = append(problems, path+": method "+n.Name.Name)
				}
			case *ast.TypeSpec:
				if dir == "cmd/serve" {
					problems = append(problems, path+": type "+n.Name.Name)
				}
				st, ok := n.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						banned := dir == "internal/serve" && name.Name == "Role" ||
							n.Name.Name == "RouterConfig" && name.Name == "Retry" ||
							n.Name.Name == "BreakerConfig" && name.Name == "HalfOpenProbes"
						if banned {
							problems = append(problems, path+": field "+n.Name.Name+"."+name.Name)
						}
					}
					if star, ok := f.Type.(*ast.StarExpr); ok && dir == "internal/serve" && selectorName(star.X) == "shard.Router" {
						problems = append(problems, path+": "+n.Name.Name+" holds a *shard.Router")
					}
				}
			case *ast.CompositeLit:
				if name := selectorName(n.Type); name == "BreakerSource" || name == "resilience.BreakerSource" {
					breakerSourceFiles[path] = true
				}
			case *ast.SelectorExpr:
				// A plane cache of one's own is a node part only in the
				// experiments; examples/shared-cache shows it as a library.
				name := selectorName(n)
				if handBuilt && (name == "shard.NewNodeHandler" || name == "http.Server") || inExperiments && name == "servecache.New" {
					problems = append(problems, path+": "+name+" (start nodes through internal/serve)")
				}
			}
			return true
		})
	})
	if mainLines > 200 {
		problems = append(problems, "cmd/serve: "+strconv.Itoa(mainLines)+" non-test lines, want at most 200")
	}
	if len(breakerSourceFiles) != 1 {
		problems = append(problems, "resilience.BreakerSource is constructed in "+strconv.Itoa(len(breakerSourceFiles))+" non-test files, want exactly one")
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		t.Fatalf("the serving tier forked again:\n  %s", strings.Join(problems, "\n  "))
	}
}

// TestOneMeasuredWalk keeps "refine along a growing plan sequence and
// measure L∞ on the original" in one place, core.Walker: the model packages
// only convert a sweep (no core.Compress, core.Retrieve*, grid.MaxAbsDiff
// in internal/dmgard or internal/emgard), exactly one function of
// internal/core measures against an original (grid.MaxAbsDiff), and the
// experiments' oracle path and the backend probe hold no one-shot retrieval
// of their own (no Retrieve* call in experiments/path.go or core/probe.go).
func TestOneMeasuredWalk(t *testing.T) {
	var problems, measurers []string
	walkSourceFiles(t, false, func(path string, file *ast.File) {
		path = filepath.ToSlash(path)
		dir := filepath.ToSlash(filepath.Dir(path))
		models := dir == "internal/dmgard" || dir == "internal/emgard"
		walkers := path == "internal/experiments/path.go" || path == "internal/core/probe.go"
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			where := path + ": " + recvTypeName(fn) + "." + fn.Name.Name
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := selectorName(call.Fun)
				bare := name[strings.LastIndex(name, ".")+1:]
				oneShot := strings.HasPrefix(strings.ToLower(bare), "retrieve")
				if models && (name == "core.Compress" || name == "grid.MaxAbsDiff" || strings.HasPrefix(name, "core.") && oneShot) || walkers && oneShot {
					problems = append(problems, where+" calls "+name)
				}
				if dir == "internal/core" && name == "grid.MaxAbsDiff" && !slices.Contains(measurers, where) {
					measurers = append(measurers, where)
				}
				return true
			})
		}
	})
	if len(measurers) != 1 {
		problems = append(problems, "grid.MaxAbsDiff is called from "+strconv.Itoa(len(measurers))+" functions of internal/core, want exactly one: "+strings.Join(measurers, ", "))
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		t.Fatalf("a measured walk was written by hand again:\n  %s", strings.Join(problems, "\n  "))
	}
}

// TestOneTransformContract keeps one implementation per data-path step
// outside benchmark/: no coarse recomposition beside RecomposeInto (no
// RecomposeLevel identifier), no per-node level table (no LevelOf) and no
// per-level offset list beside the plan's run schedule (no Indices in
// internal/interleave); one struct type carries the transform options
// (fields Levels int, Update bool, UpdateWeight float64 — codec.Options);
// internal/fieldio reads field files through its window reader only: no
// bufio import, exactly one json.Unmarshal call (the header parser); and
// internal/bitplane keeps one plane representation and one decoder: no
// Mode type, no SignMagnitude constant or variable (the method that
// re-slices an encoding for the encoding ablation is allowed), no
// DecodePartial, encodeWord or decodeWord, and an EncodeLevel of exactly
// four parameters (coeffs, planes, workers, o).
func TestOneTransformContract(t *testing.T) {
	optionFields := map[string]string{"Levels": "int", "Update": "bool", "UpdateWeight": "float64"}
	var problems, optionTypes, unmarshals, encodeLevels []string
	walkSourceFiles(t, false, func(path string, file *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		inFieldio, inBitplane := dir == "internal/fieldio", dir == "internal/bitplane"
		inInterleave := dir == "internal/interleave"
		if inFieldio {
			for _, imp := range file.Imports {
				if imp.Path.Value == `"bufio"` {
					problems = append(problems, path+": imports bufio")
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if n.Name == "RecomposeLevel" || n.Name == "LevelOf" || inInterleave && n.Name == "Indices" ||
					inBitplane && (n.Name == "DecodePartial" || n.Name == "encodeWord" || n.Name == "decodeWord") {
					problems = append(problems, path+": "+n.Name)
				}
			case *ast.ValueSpec:
				for _, name := range n.Names {
					if inBitplane && name.Name == "SignMagnitude" {
						problems = append(problems, path+": a SignMagnitude value")
					}
				}
			case *ast.FuncDecl:
				if inBitplane && n.Recv == nil && n.Name.Name == "EncodeLevel" {
					encodeLevels = append(encodeLevels, path+" takes "+strconv.Itoa(n.Type.Params.NumFields()))
				}
			case *ast.TypeSpec:
				if inBitplane && n.Name.Name == "Mode" {
					problems = append(problems, path+": type Mode")
				}
				st, ok := n.Type.(*ast.StructType)
				if !ok {
					return true
				}
				matched := 0
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if typ, ok := optionFields[name.Name]; ok && selectorName(f.Type) == typ {
							matched++
						}
					}
				}
				if matched == len(optionFields) {
					optionTypes = append(optionTypes, path+": "+n.Name.Name)
				}
			case *ast.CallExpr:
				if inFieldio && selectorName(n.Fun) == "json.Unmarshal" {
					unmarshals = append(unmarshals, path)
				}
			}
			return true
		})
	})
	if len(optionTypes) != 1 {
		problems = append(problems, strconv.Itoa(len(optionTypes))+" struct types carry the transform options, want exactly one: "+strings.Join(optionTypes, ", "))
	}
	if len(unmarshals) != 1 {
		problems = append(problems, "internal/fieldio calls json.Unmarshal "+strconv.Itoa(len(unmarshals))+" times, want exactly once: "+strings.Join(unmarshals, ", "))
	}
	if len(encodeLevels) != 1 || !strings.HasSuffix(encodeLevels[0], " takes 4") {
		problems = append(problems, "internal/bitplane declares EncodeLevel "+strconv.Itoa(len(encodeLevels))+" times, want once with 4 parameters: "+strings.Join(encodeLevels, ", "))
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		t.Fatalf("a data-path step has a twin again:\n  %s", strings.Join(problems, "\n  "))
	}
}

// TestOneBoundTable keeps one representation of an error bound outside
// benchmark/: retrieval.Bound, a per-level table read at plane counts. No
// estimator interface or wrapper comes back beside it (no ErrorEstimator,
// PerLevelEstimator or countingEstimator, no TheoryEstimator type — the
// Header.TheoryEstimator method, Bound under the benchmark replay's name, is
// allowed —
// and no Estimate method), and neither does the "tight" constant, which is
// no bound (no TightAmplification, TightEstimator or ErrorAmplification).
func TestOneBoundTable(t *testing.T) {
	banned := map[string]bool{
		"ErrorEstimator": true, "PerLevelEstimator": true, "countingEstimator": true,
		"TightAmplification": true, "TightEstimator": true, "ErrorAmplification": true,
	}
	var problems []string
	walkSourceFiles(t, false, func(path string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if banned[n.Name] {
					problems = append(problems, path+": "+n.Name)
				}
			case *ast.TypeSpec:
				if n.Name.Name == "TheoryEstimator" {
					problems = append(problems, path+": type TheoryEstimator")
				}
			case *ast.FuncDecl:
				if n.Recv != nil && n.Name.Name == "Estimate" {
					problems = append(problems, path+": an Estimate method")
				}
			}
			return true
		})
	})
	if len(problems) > 0 {
		sort.Strings(problems)
		t.Fatalf("an error bound has a second representation again:\n  %s", strings.Join(problems, "\n  "))
	}
}

// TestOnePlanner keeps retrieval.GreedyPlan — ExactPlan under the name the
// benchmark replay (benchmark/, which this walk skips) plans with — out of
// every other non-test package: the product calls retrieval.ExactPlan and
// the reproduction calls MGARD's greedy as retrieval.Greedy, so the alias
// leaves with the replay.
func TestOnePlanner(t *testing.T) {
	var problems []string
	walkSourceFiles(t, false, func(path string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if selectorName(n) == "retrieval.GreedyPlan" {
					problems = append(problems, path+": retrieval.GreedyPlan")
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "GreedyPlan" && file.Name.Name == "retrieval" {
					problems = append(problems, path+": GreedyPlan")
				}
			}
			return true
		})
	})
	if len(problems) > 0 {
		sort.Strings(problems)
		t.Fatalf("the benchmark replay's planner alias spread:\n  %s", strings.Join(problems, "\n  "))
	}
}

// selectorName renders an identifier or a pkg.Name selector, "" otherwise.
func selectorName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok {
			return pkg.Name + "." + e.Sel.Name
		}
	}
	return ""
}

// TestOneInstrumentBinding keeps instruments bound where components are
// built: outside internal/obs, the only functions or methods named
// Instrument (in any case) are (*core.Session).Instrument — a session never
// counts without a registry — and (*storage.Store).Instrument; and no
// **obs.Counter, **obs.Gauge or **obs.Histogram appears, the signature of
// every closure that rebinds an instrument after construction.
func TestOneInstrumentBinding(t *testing.T) {
	permitted := map[string]bool{"internal/core.Session": true, "internal/storage.Store": true}
	var problems []string
	walkSourceFiles(t, false, func(path string, file *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "internal/obs" {
			return
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && strings.EqualFold(fn.Name.Name, "Instrument") && !permitted[dir+"."+recvTypeName(fn)] {
				problems = append(problems, path+": "+recvTypeName(fn)+"."+fn.Name.Name)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if outer, ok := n.(*ast.StarExpr); ok {
				if inner, ok := outer.X.(*ast.StarExpr); ok {
					switch name := selectorName(inner.X); name {
					case "obs.Counter", "obs.Gauge", "obs.Histogram":
						problems = append(problems, path+": **"+name)
					}
				}
			}
			return true
		})
	})
	if len(problems) > 0 {
		sort.Strings(problems)
		t.Fatalf("an instrument is rebound after construction; resolve it once, in the constructor, from Obs.Registry:\n  %s", strings.Join(problems, "\n  "))
	}
}

// TestOnePromiseMatrix keeps "achieved ≤ tolerance, or a degradation
// report" asserted in one table, internal/promise: every suite that used to
// assert it on a fixture of its own is a one-statement selector into the
// matrix, promise.Run(t, promise.X), and the shared helpers those suites
// and codectest's tolerance rows ran (testLostPlaneDegrades,
// testToleranceBound) stay gone.
func TestOnePromiseMatrix(t *testing.T) {
	suites := map[string][]string{
		"internal/core": {"TestCompressRetrieveWithinTolerance", "TestFileRoundTrip", "TestTieredWorkflow", "TestReadPathEquivalence", "TestReadPathsDegradeAroundRottedMedia",
			"TestReadPathsRejectMisdirectedSegment", "TestWalkerMatchesFreshRetrievals",
			"TestSessionRefineThroughRetryingSourceByteIdentical", "TestSessionDegradedRefine"},
		"internal/shard": {"TestRunProtocolEquivalence", "TestLostPlaneMidRunDegradesLikeOnePlaneProtocol"},
		"internal/serve": {"TestRolesAnswerAlike", "TestChaosBitRotDegradesOnEveryLayout",
			"TestChaosUninflatablePlaneDegrades", "TestChaosUnindexedPlaneDegradesOnEveryLayout"},
	}
	selectors := map[string]int{}
	var problems []string
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".go") {
			return err
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn.Name.Name == "testLostPlaneDegrades" || fn.Name.Name == "testToleranceBound" {
				problems = append(problems, path+": "+fn.Name.Name)
			}
			if !strings.HasSuffix(path, "_test.go") || !slices.Contains(suites[dir], fn.Name.Name) {
				continue
			}
			selectors[dir+"."+fn.Name.Name]++
			var call *ast.CallExpr
			if len(fn.Body.List) == 1 {
				if stmt, ok := fn.Body.List[0].(*ast.ExprStmt); ok {
					call, _ = stmt.X.(*ast.CallExpr)
				}
			}
			if call == nil || selectorName(call.Fun) != "promise.Run" || len(call.Args) != 2 || !strings.HasPrefix(selectorName(call.Args[1]), "promise.") {
				problems = append(problems, path+": "+fn.Name.Name+" is not one promise.Run(t, promise.X)")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir, names := range suites {
		for _, name := range names {
			if n := selectors[dir+"."+name]; n != 1 {
				problems = append(problems, dir+": "+name+" defined "+strconv.Itoa(n)+" times, want once")
			}
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		t.Fatalf("the promise is asserted outside its matrix again:\n  %s", strings.Join(problems, "\n  "))
	}
}

// TestEveryExperimentDocumented keeps each experiment id tied to the
// EXPERIMENTS.md table it backs: every id cmd/bench runs appears, in
// backticks, in a section heading or at the head of a bold bullet of
// EXPERIMENTS.md.
func TestEveryExperimentDocumented(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var heads []string
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "* **") {
			heads = append(heads, line)
		}
	}
	for _, id := range experiments.IDs() {
		if !slices.ContainsFunc(heads, func(line string) bool { return strings.Contains(line, "`"+id+"`") }) {
			t.Errorf("experiment %q names no section of EXPERIMENTS.md: put it in backticks in the heading of the table it backs", id)
		}
	}
}
