package ibmig_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// testProbes lists the exported identifiers under internal/ that no
// program, example or bench workload calls, kept because a test needs them
// to observe state. Each entry names a test (or benchmark) that uses it.
// Keys are "package.Name" for package-level declarations and
// "package.Type.Name" for methods.
var testProbes = map[string]string{
	"cr.Runner.Cleanup":            "TestCheckpointCycleExtentLeak",
	"exp.PhaseRowFromReport":       "BenchmarkFig7MigrationVsCR",
	"fleet.System.SpareTarget":     "TestAutoscaleTracksFailureRate",
	"ftb.Subscription.TryRecv":     "TestEventOrderPreservedPerPublisher",
	"mem.Region.Extents":           "TestRegionExtentsBoundedUnderChurn",
	"mpi.Rank.Send":                "TestRingAllocsPerMessage",
	"mpi.World.BytesSent":          "TestDeterministicAcrossRuns",
	"npb.Result.Equal":             "TestSuspensionIsApplicationTransparent",
	"npb.Workload.NodeImageBytes":  "TestPerNodeVolumeGrowsSlowlyWithPPN",
	"npb.Workload.TotalImageBytes": "TestTableISizesExact",
	"obs.Collector.Counter":        "TestObservedParallelMerge",
	"obs.Collector.Gauge":          "TestNilCollectorNoOps",
	"obs.Collector.Track":          "TestUsageTrack",
	"obs.FlightRecorder.Actors":    "TestFlightRecorderPerActorBound",
	"obs.Histogram.Min":            "TestHistogramQuantiles",
	"payload.Buffer.Equal":         "TestEqual",
	"payload.NewTree":              "TestSpliceChurnAllocs",
	"payload.SetMaterializeCap":    "TestMaterializeCap",
	"payload.Tree.Size":            "TestTreeSpliceMatchesReference",
	"proc.Process.Segment":         "TestSegmentLookup",
	"proc.Table.Get":               "TestSpawnAssignsUniquePIDs",
	"sim.Engine.LiveProcs":         "TestShutdownReapsDaemons",
	"sim.Engine.Perturbed":         "TestPerturbedReportsState",
	"sim.Engine.Rand":              "TestDeterministicTraceAcrossRuns",
	"vfs.Disk.Streams":             "TestDiskStreamAccounting",
	"vfs.FileSystem.CachedBytes":   "TestCacheEvictionRespectsCapacity",
	"vfs.FileSystem.DirtyBytes":    "TestDirtyLimitThrottlesWriter",
	"vfs.PVFS.Servers":             "TestPVFSStripingSpreadsAcrossServers",
}

// testKnobs lists the exported fields of *Config, *Options and *Spec
// structs under internal/ that no program, example or bench workload sets.
// Each entry names the test that sets the field, or the ROADMAP item that
// blocks its removal ("ROADMAP n: reason", where item n names the struct).
// Keys are "package.Type.Field".
var testKnobs = map[string]string{
	// ftmodel's model-vs-engine check runs a pure unpredicted-failure fleet
	// with all work queued at t=0; the 10,000-node soak, whose config
	// ROADMAP item 5 freezes, also sets ArriveFrac.
	"fleet.Config.AlarmsPerDay": "TestSimulatedOptimalSpareFractionMatchesModel",
	"fleet.Config.ArriveFrac":   "TestSimulatedOptimalSpareFractionMatchesModel",
	"fleet.Config.Coverage":     "TestSimulatedOptimalSpareFractionMatchesModel",
	"fleet.Config.RackFrac":     "TestSimulatedOptimalSpareFractionMatchesModel",

	"blcr.RestartOptions.Callbacks": "ROADMAP 11: bench/probes.go passes blcr.RestartOptions",
	"ib.Config.Bandwidth":           "ROADMAP 11: bench/probes.go passes ib.Config",
	"ib.Config.Latency":             "ROADMAP 11: bench/probes.go passes ib.Config",
	"mpi.Config.ComputeSlice":       "ROADMAP 11: bench/probes.go passes mpi.Config",
	"mpi.Config.EagerThreshold":     "ROADMAP 11: bench/probes.go passes mpi.Config",
	"mpi.Config.PMIExchangePerRank": "ROADMAP 11: bench/probes.go passes mpi.Config",
	"mpi.Config.RendezvousBufSize":  "ROADMAP 11: bench/probes.go passes mpi.Config",
	"vfs.DiskConfig.OpOverhead":     "ROADMAP 11: bench/probes.go passes vfs.DiskConfig",
	"vfs.DiskConfig.ReadBandwidth":  "ROADMAP 11: bench/probes.go passes vfs.DiskConfig",
	"vfs.DiskConfig.WriteBandwidth": "ROADMAP 11: bench/probes.go passes vfs.DiskConfig",
	"vfs.FSConfig.CacheCapacity":    "ROADMAP 11: bench/probes.go passes vfs.FSConfig",
	"vfs.FSConfig.DirtyRatio":       "ROADMAP 11: bench/probes.go passes vfs.FSConfig",
}

// implicitCallers are method names the standard library calls through an
// interface (fmt.Stringer, error, json.Marshaler, sort.Interface, ...), so a
// method with one of these names has a caller even when no source file
// spells the name out.
var implicitCallers = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// sourceTree is the type-checked view of every non-test Go file in the
// repository (both modules: the root and bench/), plus the identifier names
// each test, benchmark, fuzz target and example mentions.
type sourceTree struct {
	fset  *token.FileSet
	info  *types.Info
	pkgs  map[string]*types.Package // import path → package
	files []*ast.File               // every non-test file
	tests testFuncs
}

var (
	treeOnce sync.Once
	tree     *sourceTree
	treeErr  error
)

// loadTree parses and type-checks the tree once for every guard.
func loadTree(t *testing.T) *sourceTree {
	t.Helper()
	treeOnce.Do(func() { tree, treeErr = parseTree() })
	if treeErr != nil {
		t.Fatal(treeErr)
	}
	return tree
}

// rootModule is the module path of the repository root. bench/ is the
// module rootModule+"/bench", so in both modules a directory's import path is
// rootModule followed by its path from the root.
const rootModule = "ibmig"

func importPath(dir string) string {
	if dir = filepath.ToSlash(dir); dir == "." {
		return rootModule
	}
	return rootModule + "/" + dir
}

func parseTree() (*sourceTree, error) {
	st := &sourceTree{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs:  map[string]*types.Package{},
		tests: testFuncs{},
	}
	byPkg := map[string][]*ast.File{}
	external := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir, name := filepath.Split(path)
		if dir == "" {
			dir = "."
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(st.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			st.tests.record(f)
			return nil
		}
		ip := importPath(filepath.Clean(dir))
		byPkg[ip] = append(byPkg[ip], f)
		st.files = append(st.files, f)
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(p, rootModule+"/") {
				external[p] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	std, err := exportData(external)
	if err != nil {
		return nil, err
	}
	imp := &treeImporter{st: st, files: byPkg, std: std}
	for ip := range byPkg {
		if _, err := imp.Import(ip); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// exportData asks the go command where the compiled export data of each
// listed standard-library package (and its dependencies) lives.
func exportData(paths map[string]bool) (map[string]string, error) {
	args := []string{"list", "-deps", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	for p := range paths {
		args = append(args, p)
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.String())
	}
	std := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if p, file, ok := strings.Cut(line, "="); ok && file != "" {
			std[p] = file
		}
	}
	return std, nil
}

// treeImporter type-checks the repository's packages from source, each
// once, and imports everything else from compiled export data.
type treeImporter struct {
	st    *sourceTree
	files map[string][]*ast.File
	std   map[string]string
	gc    types.Importer
}

func (imp *treeImporter) Import(path string) (*types.Package, error) {
	if p := imp.st.pkgs[path]; p != nil {
		return p, nil
	}
	files, ok := imp.files[path]
	if !ok {
		if imp.gc == nil {
			imp.gc = importer.ForCompiler(imp.st.fset, "gc", func(path string) (io.ReadCloser, error) {
				file, ok := imp.std[path]
				if !ok {
					return nil, fmt.Errorf("no export data for %s", path)
				}
				return os.Open(file)
			})
		}
		return imp.gc.Import(path)
	}
	conf := types.Config{Importer: imp}
	p, err := conf.Check(path, imp.st.fset, files, imp.st.info)
	if err != nil {
		return nil, err
	}
	imp.st.pkgs[path] = p
	return p, nil
}

// internalPkgs returns the type-checked packages under internal/, in import
// path order.
func (st *sourceTree) internalPkgs() []*types.Package {
	var out []*types.Package
	for ip, p := range st.pkgs {
		if strings.HasPrefix(ip, rootModule+"/internal/") {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path() < out[j].Path() })
	return out
}

// TestNoUnusedInternalAPI fails when an exported identifier declared under
// internal/ is used in no non-test Go file of the tree (bench/, cmd/ and
// examples/ included), unless testProbes lists it with a test that mentions
// it. Uses are resolved by object, so a dead method sharing its name with a
// live one is still found. A method also counts as used when its type
// implements an interface whose method of that name is used (for a generic
// interface, when the names match).
func TestNoUnusedInternalAPI(t *testing.T) {
	st := loadTree(t)
	used := map[types.Object]bool{}
	var ifaceCalls []*types.Func
	for _, obj := range st.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			fn = fn.Origin()
			obj = fn
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceCalls = append(ifaceCalls, fn)
			}
		}
		used[obj] = true
	}
	viaInterface := func(m *types.Func, named *types.Named) bool {
		for _, call := range ifaceCalls {
			if call.Name() != m.Name() {
				continue
			}
			recv := call.Type().(*types.Signature).Recv().Type()
			if n, ok := recv.(*types.Named); ok && n.Origin().TypeParams().Len() > 0 {
				return true // a generic constraint: matched by name
			}
			if types.Implements(types.NewPointer(named), recv.Underlying().(*types.Interface)) {
				return true
			}
		}
		return false
	}

	var problems []string
	declared := map[string]bool{}
	check := func(key string, obj types.Object, live bool) {
		declared[key] = true
		at := st.fset.Position(obj.Pos()).String()
		user, probe := testProbes[key]
		switch {
		case probe && live:
			problems = append(problems, fmt.Sprintf("testProbes entry %s (%s) has a caller outside tests: drop the entry", key, at))
		case probe && !st.tests.mentions(user, obj.Name()):
			problems = append(problems, fmt.Sprintf("testProbes entry %s (%s) names %s, which is not a test that mentions it", key, at, user))
		case !probe && !live:
			problems = append(problems, fmt.Sprintf("exported %s (%s) has no caller outside tests: delete it, or add it to testProbes naming the test it serves", key, at))
		}
	}
	pkgs := st.internalPkgs()
	if len(pkgs) == 0 {
		t.Fatal("no packages found under internal/; run from the repository root")
	}
	for _, p := range pkgs {
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				check(p.Name()+"."+name, obj, used[obj])
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || implicitCallers[m.Name()] {
					continue
				}
				check(p.Name()+"."+name+"."+m.Name(), m, used[m] || viaInterface(m, named))
			}
		}
	}
	for key := range testProbes {
		if !declared[key] {
			problems = append(problems, fmt.Sprintf("testProbes entry %s names no exported declaration under internal/", key))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// isKnobStruct reports whether a type name marks a configuration struct:
// Config, Options or Spec, alone or as a suffix.
func isKnobStruct(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Spec")
}

// knobFields returns the exported fields of the exported configuration
// structs under internal/, each mapped to its key package.Type.Field.
func (st *sourceTree) knobFields() map[*types.Var]string {
	out := map[*types.Var]string{}
	for _, p := range st.internalPkgs() {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !isKnobStruct(name) {
				continue
			}
			s, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < s.NumFields(); i++ {
				if f := s.Field(i); f.Exported() {
					out[f] = p.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}
	return out
}

// fieldWriters returns, for each struct field, the number of places in
// non-test files that write it: a keyed or positional composite literal, an
// assignment, an increment, or taking its address. A write through the
// receiver or a parameter of the field's own struct type, inside the
// package that declares it, is that struct's defaulting code and does not
// count.
func (st *sourceTree) fieldWriters() map[*types.Var]int {
	writes := map[*types.Var]int{}
	for _, f := range st.files {
		for _, decl := range f.Decls {
			self := selfSet{}
			if fn, ok := decl.(*ast.FuncDecl); ok {
				self = selfVars(st.info, fn)
			}
			// written records a write to the selector chain e, e.g. a.B.C.
			written := func(e ast.Expr) {
				for {
					switch x := e.(type) {
					case *ast.ParenExpr:
						e = x.X
					case *ast.IndexExpr:
						e = x.X
					case *ast.StarExpr:
						e = x.X
					case *ast.SelectorExpr:
						if sel := st.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
							field := sel.Obj().(*types.Var)
							if !self.owns(field, x.X, st.info) {
								writes[field]++
							}
						}
						e = x.X
					default:
						return
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						written(lhs)
					}
				case *ast.IncDecStmt:
					written(x.X)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						written(x.X)
					}
				case *ast.CompositeLit:
					s, ok := st.info.Types[x].Type.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range x.Elts {
						if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
							if field, isVar := st.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); isVar {
								writes[field]++
							}
						} else if i < s.NumFields() {
							writes[s.Field(i)]++
						}
					}
				}
				return true
			})
		}
	}
	return writes
}

// selfSet holds a function's receiver and parameters.
type selfSet map[types.Object]bool

func selfVars(info *types.Info, fn *ast.FuncDecl) selfSet {
	s := selfSet{}
	for _, l := range []*ast.FieldList{fn.Recv, fn.Type.Params} {
		if l == nil {
			continue
		}
		for _, field := range l.List {
			for _, id := range field.Names {
				if obj := info.Defs[id]; obj != nil {
					s[obj] = true
				}
			}
		}
	}
	return s
}

// owns reports whether base, the expression whose field is written, is the
// function's own receiver or a parameter whose type is the field's struct
// (or a pointer to it), inside the package that declares the field.
func (s selfSet) owns(field *types.Var, base ast.Expr, info *types.Info) bool {
	id, ok := base.(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if !s[obj] || obj.Pkg() != field.Pkg() {
		return false
	}
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	for i := 0; ok && i < st.NumFields(); i++ {
		if st.Field(i) == field {
			return true
		}
	}
	return false
}

// TestNoUnsetConfigField fails when an exported field of an exported
// Config, Options or Spec struct under internal/ has no writer in any
// non-test file outside its struct's defaulting code: a field that every
// caller leaves at its default is a constant, and should be written as one.
// testKnobs lists the exceptions, each with the test that sets the field or
// the ROADMAP item that blocks its removal.
func TestNoUnsetConfigField(t *testing.T) {
	st := loadTree(t)
	fields := st.knobFields()
	if len(fields) == 0 {
		t.Fatal("no configuration structs found under internal/; run from the repository root")
	}
	writes := st.fieldWriters()
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	var problems []string
	declared := map[string]bool{}
	for field, key := range fields {
		declared[key] = true
		at := st.fset.Position(field.Pos()).String()
		why, knob := testKnobs[key]
		switch {
		case knob && writes[field] > 0:
			problems = append(problems, fmt.Sprintf("testKnobs entry %s (%s) is set outside tests: drop the entry", key, at))
		case knob && strings.HasPrefix(why, "ROADMAP "):
			item, _, _ := strings.Cut(strings.TrimPrefix(why, "ROADMAP "), ":")
			if typ := key[:strings.LastIndex(key, ".")]; !strings.Contains(roadmapItem(string(roadmap), item), typ) {
				problems = append(problems, fmt.Sprintf("testKnobs entry %s (%s) cites ROADMAP item %s, which does not name %s", key, at, item, typ))
			}
		case knob && !st.tests.mentions(why, field.Name()):
			problems = append(problems, fmt.Sprintf("testKnobs entry %s (%s) names %s, which is not a test that mentions it", key, at, why))
		case !knob && writes[field] == 0:
			problems = append(problems, fmt.Sprintf("config field %s (%s) is set by no program: make it a constant, or add it to testKnobs naming the test that sets it", key, at))
		}
	}
	for key := range testKnobs {
		if !declared[key] {
			problems = append(problems, fmt.Sprintf("testKnobs entry %s names no exported configuration field under internal/", key))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// roadmapItem returns the text of the numbered open item n of a ROADMAP
// document: from the line that starts "n. " to the next numbered item or
// heading.
func roadmapItem(doc, n string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.Split(doc, "\n") {
		num, _, numbered := strings.Cut(line, ". ")
		if _, err := strconv.Atoi(num); err != nil {
			numbered = false
		}
		if numbered || strings.HasPrefix(line, "#") {
			in = numbered && num == n
		}
		if in {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// testFuncs maps each top-level function of the test files (tests and their
// helpers alike) to the identifier names its body mentions.
type testFuncs map[string]map[string]bool

func (tf testFuncs) record(f *ast.File) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || fn.Body == nil {
			continue
		}
		name := fn.Name.Name
		if tf[name] == nil {
			tf[name] = map[string]bool{}
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				tf[name][id.Name] = true
			}
			return true
		})
	}
}

// mentions reports whether test, a test, benchmark, fuzz target or example,
// mentions name in its body or in a test-file helper it reaches. Helpers are
// matched by name across packages, which can only widen what a test reaches.
func (tf testFuncs) mentions(test, name string) bool {
	if !strings.HasPrefix(test, "Test") && !strings.HasPrefix(test, "Benchmark") &&
		!strings.HasPrefix(test, "Fuzz") && !strings.HasPrefix(test, "Example") {
		return false
	}
	seen := map[string]bool{test: true}
	for queue := []string{test}; len(queue) > 0; queue = queue[1:] {
		for id := range tf[queue[0]] {
			if id == name {
				return true
			}
			if tf[id] != nil && !seen[id] {
				seen[id] = true
				queue = append(queue, id)
			}
		}
	}
	return false
}
