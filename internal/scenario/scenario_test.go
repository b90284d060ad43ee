package scenario

import (
	"math"
	"strings"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/spatial"
)

func TestRegistryHasBuiltins(t *testing.T) {
	for _, name := range []string{"fish", "traffic", "predator", "predator-inv", "epidemic", "evacuate"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("builtin scenario %q not registered", name)
		}
	}
	if len(All()) < 5 {
		t.Fatalf("registry has %d scenarios, want ≥ 5", len(All()))
	}
}

func TestAllSortedAndNamesMatch(t *testing.T) {
	all := All()
	names := Names()
	if len(all) != len(names) {
		t.Fatalf("All/Names length mismatch: %d vs %d", len(all), len(names))
	}
	for i, sp := range all {
		if sp.Name != names[i] {
			t.Errorf("All[%d].Name = %q, Names[%d] = %q", i, sp.Name, i, names[i])
		}
		if i > 0 && all[i-1].Name >= sp.Name {
			t.Errorf("All not sorted: %q before %q", all[i-1].Name, sp.Name)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("Lookup of unknown name succeeded")
	}
	err := ErrUnknown("no-such-scenario")
	if !strings.Contains(err.Error(), "no-such-scenario") || !strings.Contains(err.Error(), "fish") {
		t.Errorf("ErrUnknown message unhelpful: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	mustPanic := func(name string, sp Spec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(sp)
	}
	ok := Spec{Name: "tmp-valid", Build: func(Config) (engine.Model, []*agent.Agent, error) { return nil, nil, nil }}
	mustPanic("empty name", Spec{Build: ok.Build})
	mustPanic("nil build", Spec{Name: "tmp-nil-build"})
	mustPanic("duplicate", Spec{Name: "fish", Build: ok.Build})
}

func TestDefaultsApplied(t *testing.T) {
	for _, sp := range All() {
		m, pop, err := sp.New(Config{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		if m == nil || m.Schema() == nil {
			t.Fatalf("%s: nil model/schema", sp.Name)
		}
		if err := m.Schema().Validate(); err != nil {
			t.Fatalf("%s: invalid schema: %v", sp.Name, err)
		}
		if len(pop) == 0 {
			t.Fatalf("%s: empty default population", sp.Name)
		}
		if sp.Description == "" {
			t.Errorf("%s: missing description", sp.Name)
		}
	}
}

// testConfig sizes a scenario down so the equivalence sweep stays fast.
// Traffic derives its population from Extent (density × length × lanes);
// everything else honors Agents.
func testConfig(sp Spec, seed uint64) Config {
	cfg := Config{Agents: 96, Extent: 30, Seed: seed}
	if sp.Name == "traffic" {
		cfg.Extent = 1800 // ≈ 115 vehicles at default density
	}
	return cfg
}

func clonePop(pop []*agent.Agent) []*agent.Agent {
	out := make([]*agent.Agent, len(pop))
	for i, a := range pop {
		out[i] = a.Clone()
	}
	return out
}

// TestCrossEngineEquivalence is the registry-driven form of partition
// invariance: every registered scenario computes the same simulation on
// one partition and on 2 and 8 — bit-identically for local-effect
// scenarios, and within the spec's tolerance for non-local ones (the
// global ⊕ fold reassociates floating point). The engine package's
// TestOracleEquivalence checks one partition against its naive oracle.
func TestCrossEngineEquivalence(t *testing.T) {
	const ticks = 10
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			for _, seed := range []uint64{3, 17} {
				m, base, err := sp.New(testConfig(sp, seed))
				if err != nil {
					t.Fatal(err)
				}
				one := runWorkers(t, m, base, seed, 1, ticks)
				if len(one) == 0 {
					t.Fatalf("seed %d: population died out; test config mis-tuned", seed)
				}
				for _, workers := range []int{2, 8} {
					many := runWorkers(t, m, base, seed, workers, ticks)
					if sp.LocalOnly {
						assertExact(t, sp.Name, seed, workers, one, many)
					} else {
						assertApprox(t, sp.Name, seed, workers, one, many, sp.Tolerance)
					}
				}
			}
		})
	}
}

func runWorkers(t *testing.T, m engine.Model, base []*agent.Agent, seed uint64, workers, ticks int) []*agent.Agent {
	t.Helper()
	e, err := engine.NewDistributed(m, clonePop(base), engine.Options{Workers: workers, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	return e.Agents()
}

func assertExact(t *testing.T, name string, seed uint64, workers int, a, b []*agent.Agent) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s seed=%d workers=%d: population sizes differ: %d vs %d",
			name, seed, workers, len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("%s seed=%d workers=%d: agent %d differs:\n  ref:  %v\n  got:  %v",
				name, seed, workers, a[i].ID, a[i], b[i])
		}
	}
}

func assertApprox(t *testing.T, name string, seed uint64, workers int, a, b []*agent.Agent, tol float64) {
	t.Helper()
	if tol <= 0 {
		t.Fatalf("%s: non-local scenario must declare a positive Tolerance", name)
	}
	if len(a) != len(b) {
		t.Fatalf("%s seed=%d workers=%d: population sizes differ: %d vs %d",
			name, seed, workers, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("%s seed=%d workers=%d: agent ID mismatch at %d: %d vs %d",
				name, seed, workers, i, a[i].ID, b[i].ID)
		}
		for j := range a[i].State {
			if d := math.Abs(a[i].State[j] - b[i].State[j]); d > tol {
				t.Fatalf("%s seed=%d workers=%d: agent %d state[%d]: %v vs %v (Δ%g > %g)",
					name, seed, workers, a[i].ID, j, a[i].State[j], b[i].State[j], d, tol)
			}
		}
	}
}

// TestDistributedDeterminismAcrossIndexes spot-checks that the index
// structure never changes scenario semantics: for every registered
// scenario, scan and cell-grid runs agree bit-for-bit.
func TestDistributedDeterminismAcrossIndexes(t *testing.T) {
	const ticks = 6
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			m, base, err := sp.New(testConfig(sp, 9))
			if err != nil {
				t.Fatal(err)
			}
			var ref []*agent.Agent
			for i, kind := range []spatial.Kind{spatial.KindScan, spatial.KindKDTree} {
				e, err := engine.NewDistributed(m, clonePop(base), engine.Options{
					Workers: 3, Index: kind, Seed: 9,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					ref = e.Agents()
				} else {
					assertExact(t, sp.Name+"/"+kind.String(), 9, 3, ref, e.Agents())
				}
			}
		})
	}
}
