package ibmig_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
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
	"mpi.Rank.Isend":               "TestSuspendDrainWaitsForRendezvous",
	"npb.Workload.NodeImageBytes":  "TestPerNodeVolumeGrowsSlowlyWithPPN",
	"npb.Workload.TotalImageBytes": "TestTableISizesExact",
	"obs.Collector.Counter":        "TestObservedParallelMerge",
	"obs.Collector.Gauge":          "TestNilCollectorNoOps",
	"obs.Collector.Track":          "TestUsageTrack",
	"obs.Histogram.Min":            "TestHistogramQuantiles",
	"payload.NewTree":              "TestSpliceChurnAllocs",
	"payload.SetMaterializeCap":    "TestMaterializeCap",
	"sim.Engine.LiveProcs":         "TestShutdownReapsDaemons",
	"vfs.Disk.Streams":             "TestDiskStreamAccounting",
	"vfs.FileSystem.CachedBytes":   "TestCacheEvictionRespectsCapacity",
	"vfs.FileSystem.DirtyBytes":    "TestDirtyLimitThrottlesWriter",
	"vfs.PVFS.Servers":             "TestPVFSStripingSpreadsAcrossServers",
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

// exportedDecl is one exported package-level declaration or method.
type exportedDecl struct {
	key   string // package.Name or package.Type.Name
	ident *ast.Ident
}

// TestNoUnusedInternalAPI fails when an exported identifier declared under
// internal/ appears in no non-test Go file of the tree (bench/, cmd/ and
// examples/ included) outside its own declaration, unless testProbes lists
// it with a test that mentions it. Matching is by name, so it is
// conservative: a name shared with a live identifier hides a dead one, but a
// live identifier is never flagged.
func TestNoUnusedInternalAPI(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	var decls []exportedDecl
	// testMentions maps each test, benchmark, fuzz target and example to the
	// identifier names its body mentions.
	testMentions := map[string]map[string]bool{}
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			recordTestMentions(f, testMentions)
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			decls = append(decls, exportedDecls(f)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/; run from the repository root")
	}

	var problems []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		at := fset.Position(d.ident.Pos()).String()
		user, probe := testProbes[d.key]
		// The declaration itself is one appearance of the name.
		switch live := uses[d.ident.Name] > 1; {
		case probe && live:
			problems = append(problems, fmt.Sprintf("testProbes entry %s (%s) has a caller outside tests: drop the entry", d.key, at))
		case probe && !testMentions[user][d.ident.Name]:
			problems = append(problems, fmt.Sprintf("testProbes entry %s (%s) names %s, which is not a test that mentions it", d.key, at, user))
		case !probe && !live:
			problems = append(problems, fmt.Sprintf("exported %s (%s) has no caller outside tests: delete it, or add it to testProbes naming the test it serves", d.key, at))
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

// recordTestMentions adds, for each test, benchmark, fuzz target and example
// declared in f, the identifier names its body mentions.
func recordTestMentions(f *ast.File, into map[string]map[string]bool) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || fn.Body == nil {
			continue
		}
		name := fn.Name.Name
		if !strings.HasPrefix(name, "Test") && !strings.HasPrefix(name, "Benchmark") &&
			!strings.HasPrefix(name, "Fuzz") && !strings.HasPrefix(name, "Example") {
			continue
		}
		if into[name] == nil {
			into[name] = map[string]bool{}
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				into[name][id.Name] = true
			}
			return true
		})
	}
}

// exportedDecls returns the exported package-level funcs, types, consts and
// vars of f, and its exported methods (methods implementing a standard
// library interface excepted).
func exportedDecls(f *ast.File) []exportedDecl {
	pkg := f.Name.Name
	var out []exportedDecl
	add := func(key string, id *ast.Ident) {
		out = append(out, exportedDecl{key: key, ident: id})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				add(pkg+"."+d.Name.Name, d.Name)
				continue
			}
			if implicitCallers[d.Name.Name] {
				continue
			}
			add(pkg+"."+recvType(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(pkg+"."+s.Name.Name, s.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							add(pkg+"."+id.Name, id)
						}
					}
				}
			}
		}
	}
	return out
}

// recvType names a method's receiver type, with any pointer or type
// parameters stripped.
func recvType(e ast.Expr) string {
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
			return "?"
		}
	}
}
