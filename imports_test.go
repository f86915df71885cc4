package mobispatial

import (
	"os/exec"
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
// runLocal). A direct import of internal/parallel is how a second local
// engine came in once (PoolFallback); it must not come back unnoticed.
func TestClientHoldsOneLocalEngine(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{join .Imports "\n"}}`, "./internal/serve/client").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	if slices.Contains(strings.Fields(string(out)), "mobispatial/internal/parallel") {
		t.Error("internal/serve/client imports internal/parallel directly: a second local engine beside Shipment.Answer")
	}
}
