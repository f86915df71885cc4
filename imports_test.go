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

// TestServingImportGraph keeps the simulator-side packages out of the
// serving binaries. rstar, pmrquad and broadcast are alternative access
// methods only internal/experiments drives; experiments is the per-figure
// harness. None of them may reach a process that serves or loads live
// traffic.
//
// internal/sim is held to the same rule for mqserve only. The other three
// link it through serve/client -> internal/core: the live planner prices
// its schemes with core's analytic model (core.Advise, core.AnalyticInputs)
// and core is one package with the simulated engine, which runs on
// sim.System. Cutting that edge means splitting core, not editing an import.
func TestServingImportGraph(t *testing.T) {
	simSide := []string{
		"mobispatial/internal/rstar",
		"mobispatial/internal/pmrquad",
		"mobispatial/internal/broadcast",
		"mobispatial/internal/experiments",
	}
	forbidden := map[string][]string{
		"./cmd/mqserve":  append([]string{"mobispatial/internal/sim"}, simSide...),
		"./cmd/mqrouter": simSide,
		"./cmd/mqload":   simSide,
		"./cmd/mqtop":    simSide,
	}
	for cmd, banned := range forbidden {
		out, err := exec.Command("go", "list", "-deps", cmd).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", cmd, err)
		}
		deps := strings.Fields(string(out))
		for _, pkg := range banned {
			if slices.Contains(deps, pkg) {
				t.Errorf("%s imports %s (transitively); it belongs to the simulator side only", cmd, pkg)
			}
		}
	}
}

// TestClientHoldsOneLocalEngine: the only index internal/serve/client may
// execute a query against is the shipment's own packed tree (client/local.go,
// runLocal). A direct import of the server's engine (internal/shard, or its
// bench-facing name internal/parallel) is how a second local engine came in
// once (PoolFallback); it must not come back unnoticed.
func TestClientHoldsOneLocalEngine(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{join .Imports "\n"}}`, "./internal/serve/client").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	imports := strings.Fields(string(out))
	for _, pkg := range []string{"mobispatial/internal/shard", "mobispatial/internal/parallel"} {
		if slices.Contains(imports, pkg) {
			t.Errorf("internal/serve/client imports %s directly: a second local engine beside Shipment.Answer", pkg)
		}
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

// TestServerPricesNoEnergy: the server has no energy budget in the paper
// (§5.3), so internal/serve holds no power table — it imports neither
// internal/nic nor internal/energy, and does not reach the client's model the
// one way it could without the import, through obs.DefaultEnergyModel. (The
// client, one directory down, is where a device's Joules are counted.)
func TestServerPricesNoEnergy(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{join .Imports "\n"}}`, "./internal/serve").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	imports := strings.Fields(string(out))
	for _, pkg := range []string{"mobispatial/internal/nic", "mobispatial/internal/energy"} {
		if slices.Contains(imports, pkg) {
			t.Errorf("internal/serve imports %s", pkg)
		}
	}
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
