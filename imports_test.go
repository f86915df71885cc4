package mobispatial

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestServingImportGraph is every "X must not import Y" rule of the
// repository, one row each: a package or command, whether the rule covers
// what it links (go list -deps) or only what its own non-test files import,
// the packages under internal/ it must not reach, and why — which is also the
// failure text.
func TestServingImportGraph(t *testing.T) {
	const simSide = "it belongs to the simulator side (alternative access methods and the per-figure " +
		"harness only internal/experiments drives, the machine models, the engine that runs on them); " +
		"a process that serves or loads live traffic gets its queries and the §4.1 model from internal/scheme"
	simPkgs := []string{"rstar", "pmrquad", "dynrtree", "broadcast", "experiments", "sim", "core"}
	const throughStack = "a process builds its serving stack with internal/stack; assembling pools, " +
		"trees or routers by hand is how the commands, the example and the benchmark drifted apart"
	assembly := []string{"shard", "mutable", "router", "rtree"}
	for _, g := range []struct {
		name       string
		pkg        string
		transitive bool
		forbidden  []string
		why        string
	}{
		{"mqserve", "./cmd/mqserve", true, simPkgs, simSide},
		{"mqrouter", "./cmd/mqrouter", true, simPkgs, simSide},
		{"mqload", "./cmd/mqload", true, simPkgs, simSide},
		{"mqtop", "./cmd/mqtop", true, simPkgs, simSide},
		{"stack", "./internal/stack", true, simPkgs, simSide},
		{"mqserve-builds-through-stack", "./cmd/mqserve", false, assembly, throughStack},
		{"mqrouter-builds-through-stack", "./cmd/mqrouter", false, assembly, throughStack},
		{"liveserver-builds-through-stack", "./examples/liveserver", false, assembly, throughStack},
		{"model-not-simulator", "./internal/scheme", true, []string{"sim", "core"},
			"the model and the chooser are what the live client links instead of the simulator"},
		{"client-not-core", "./internal/serve/client", false, []string{"core"},
			"core is the simulated engine and links internal/sim; the planner's vocabulary and chooser are internal/scheme"},
		{"client-one-local-engine", "./internal/serve/client", false, []string{"shard", "parallel"},
			"the only index the client may execute a query against is the shipment's own packed tree " +
				"(client/local.go, runLocal); this is how a second local engine came in once (PoolFallback)"},
		{"server-prices-no-energy", "./internal/serve", false, []string{"nic", "energy"},
			"the server has no energy budget in the paper (§5.3); a device's Joules are counted one directory down, in the client"},
		{"server-owns-no-geometry", "./internal/serve", false, []string{"dataset"},
			"a record's geometry is the segment the pool's walk matched (engine.SearchAppendUntil, rtree.Neighbor.Seg) or the shipped leaf's (rtree.Item.Seg); the server keeps no second copy of the map"},
	} {
		t.Run(g.name, func(t *testing.T) {
			args := []string{"list", "-f", `{{join .Imports "\n"}}`, g.pkg}
			if g.transitive {
				args = []string{"list", "-deps", g.pkg}
			}
			out, err := exec.Command("go", args...).Output()
			if err != nil {
				t.Fatalf("go %v: %v", args, err)
			}
			reached := strings.Fields(string(out))
			for _, pkg := range g.forbidden {
				if slices.Contains(reached, "mobispatial/internal/"+pkg) {
					t.Errorf("%s reaches internal/%s: %s", g.pkg, pkg, g.why)
				}
			}
		})
	}
}

// productGoFiles parses every non-test Go file under root outside bench/ (a
// nested module with its own checks) and hands each to visit.
func productGoFiles(t *testing.T, root string, visit func(path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneClientPowerTable: the client's power table (Table 2's NIC states and
// the core's two draws) is energy.ClientModel and nothing else. Three structs
// once carried their own PTx and PRx, with different PClient beside them; a
// second table cannot come back unnoticed.
func TestOneClientPowerTable(t *testing.T) {
	var tables []string
	productGoFiles(t, ".", func(path string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			var ptx, prx bool
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					ptx = ptx || name.Name == "PTx"
					prx = prx || name.Name == "PRx"
				}
			}
			if ptx && prx {
				tables = append(tables, path+": "+ts.Name.Name)
			}
			return true
		})
	})
	if want := []string{"internal/energy/model.go: ClientModel"}; !slices.Equal(tables, want) {
		t.Errorf("structs declaring PTx and PRx: %v, want exactly %v", tables, want)
	}
}

// TestServerPricesNoEnergy: internal/serve holds no power table. The import
// half is TestServingImportGraph's server-prices-no-energy row; this is the
// one way to the client's model that needs no import, obs.DefaultEnergyModel.
func TestServerPricesNoEnergy(t *testing.T) {
	productGoFiles(t, "internal/serve", func(path string, f *ast.File) {
		if filepath.Dir(path) != "internal/serve" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "DefaultEnergyModel" {
				t.Errorf("%s prices with obs.DefaultEnergyModel: the server has no energy model", path)
			}
			return true
		})
	})
}

// TestOneChooser: the §4.1 partitioning decision is scheme.Choose and nothing
// else. The simulator's adaptive engine, the advisor and the live planner each
// ranked schemes by a rule of their own once (an argmin with a band, two
// strict booleans, one of the booleans); the names those rules lived under
// must not come back, and the three deciders must keep calling the one.
func TestOneChooser(t *testing.T) {
	gone := []string{"Advise", "SavesCycles", "SavesEnergy", "Verdict", "schemeEstimate"}
	var choosers []string
	calls := map[string]bool{}
	productGoFiles(t, ".", func(path string, f *ast.File) {
		declared := func(name string) {
			if name == "Choose" {
				choosers = append(choosers, path)
			}
			if slices.Contains(gone, name) {
				t.Errorf("%s declares %s: a second decision rule beside scheme.Choose", path, name)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				declared(d.Name.Name)
			case *ast.TypeSpec:
				declared(d.Name.Name)
			case *ast.Field:
				for _, name := range d.Names {
					declared(name.Name)
				}
			case *ast.CallExpr:
				if sel, ok := d.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Choose" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "scheme" {
						calls[path] = true
					}
				}
			}
			return true
		})
	})
	if want := []string{"internal/scheme/choose.go"}; !slices.Equal(choosers, want) {
		t.Errorf("declarations named Choose: %v, want exactly %v", choosers, want)
	}
	for _, path := range []string{"internal/core/adaptive.go", "internal/serve/client/planner.go", "cmd/advisor/main.go"} {
		if !calls[path] {
			t.Errorf("%s does not call scheme.Choose: it decides a partitioning some other way", path)
		}
	}
}

// TestOneFrozenEngine: the read-only local engine is shard.Pool and nothing
// else. internal/parallel was a second implementation of the same six query
// methods over one tree; it survives as the names bench/ (a pinned path)
// spells — aliases and New — and must not grow back into an engine, nor be
// imported by anything the benchmark re-anchor would then have to edit.
func TestOneFrozenEngine(t *testing.T) {
	queryMethods := []string{
		"FilterRangeAppend", "FilterPointAppend", "RangeAppend", "PointAppend", "NearestWith", "KNearestAppend",
	}
	carriers := map[string]int{}
	productGoFiles(t, "internal", func(path string, f *ast.File) {
		pkg := filepath.Dir(path)
		if pkg != "internal/parallel" && pkg != "internal/shard" {
			return
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && slices.Contains(queryMethods, d.Name.Name) {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					carriers[pkg+"."+recv.(*ast.Ident).Name]++
				}
				if pkg == "internal/parallel" && (d.Recv != nil || d.Name.Name != "New") {
					t.Errorf("%s declares func %s: internal/parallel is aliases and New", path, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && pkg == "internal/parallel" && !ts.Assign.IsValid() {
						t.Errorf("%s defines type %s: internal/parallel is aliases and New", path, ts.Name.Name)
					}
				}
			}
		}
	})
	if len(carriers) != 1 || carriers["internal/shard.Pool"] != len(queryMethods) {
		t.Errorf("types carrying the query methods: %v, want internal/shard.Pool with all %d", carriers, len(queryMethods))
	}

	productGoFiles(t, ".", func(path string, f *ast.File) {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"mobispatial/internal/parallel"` {
				t.Errorf("%s imports internal/parallel: use internal/shard, so that deleting the package is an edit to bench/ alone", path)
			}
		}
	})
}

// TestNoServingStackBuildsTheFrozenEngine: every mqserve answers, takes
// writes and cuts shipments from one mutable.Pool (internal/stack). The
// frozen engine stays only because bench/ (a pinned path) builds it, so no
// product file outside internal/shard and the internal/parallel aliases may
// construct one: a call to shard.New or shard.Over elsewhere is a second
// engine, and a second index of the map, growing back into a serving stack.
func TestNoServingStackBuildsTheFrozenEngine(t *testing.T) {
	productGoFiles(t, ".", func(path string, f *ast.File) {
		if pkg := filepath.Dir(path); pkg == "internal/shard" || pkg == "internal/parallel" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "shard" && (sel.Sel.Name == "New" || sel.Sel.Name == "Over") {
					t.Errorf("%s calls shard.%s: a serving stack builds its one pool with mutable (internal/stack)", path, sel.Sel.Name)
				}
			}
			return true
		})
	})
}

// TestItemsAreBuiltBySegItem: outside internal/rtree, rtree.SegItem is the
// only way non-test code builds an rtree.Item. The serving kernel refines
// range, point and k-NN queries from the segment a leaf carries, so an item
// written as a literal — an MBR and an id, no end bits — would index a
// segment the kernel then answers about wrongly, with no test of that path
// to notice.
func TestItemsAreBuiltBySegItem(t *testing.T) {
	productGoFiles(t, ".", func(path string, f *ast.File) {
		if filepath.Dir(path) == "internal/rtree" {
			return
		}
		if n := itemLiterals(f); n > 0 {
			t.Errorf("%s writes %d rtree.Item literal(s): build items with rtree.SegItem", path, n)
		}
	})
}

// TestItemLiteralCheckCatchesLiterals: the check above can fail — on a
// plain, an addressed, an element-elided and a renamed-import literal,
// and not on SegItem or on a same-named type of another package.
func TestItemLiteralCheckCatchesLiterals(t *testing.T) {
	src := `package p
import (
	"mobispatial/internal/rtree"
	rt "mobispatial/internal/rtree"
	other "mobispatial/internal/proto"
)
var a = rtree.Item{ID: 1}
var b = &rtree.Item{}
var c = []rtree.Item{{ID: 2}, rtree.SegItem(seg, 3), {ID: 4}}
var d = map[int]rt.Item{1: {ID: 5}}
var e = other.Item{}
var f = rtree.SegItem(seg, 6)
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if n := itemLiterals(f); n != 5 {
		t.Fatalf("itemLiterals = %d, want 5 (a, b, two in c, d)", n)
	}
}

// itemLiterals counts the rtree.Item composite literals in f, elements of
// a slice, array or map literal whose type is elided included.
func itemLiterals(f *ast.File) int {
	names := map[string]bool{}
	for _, imp := range f.Imports {
		if imp.Path.Value != `"mobispatial/internal/rtree"` {
			continue
		}
		name := "rtree"
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names[name] = true
	}
	isItem := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Item" {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && names[x.Name]
	}
	elided := func(e ast.Expr) bool {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			e = kv.Value
		}
		lit, ok := e.(*ast.CompositeLit)
		return ok && lit.Type == nil
	}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		lit, ok := node.(*ast.CompositeLit)
		if !ok || lit.Type == nil {
			return true
		}
		var elem ast.Expr
		switch typ := lit.Type.(type) {
		case *ast.ArrayType:
			elem = typ.Elt
		case *ast.MapType:
			elem = typ.Value
		default:
			if isItem(typ) {
				n++
			}
			return true
		}
		if isItem(elem) {
			for _, e := range lit.Elts {
				if elided(e) {
					n++
				}
			}
		}
		return true
	})
	return n
}
