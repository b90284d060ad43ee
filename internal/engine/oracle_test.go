package engine_test

import (
	"math"
	"slices"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/partition"
	"github.com/bigreddata/brace/internal/scenario"
)

func clonePop(pop []*agent.Agent) []*agent.Agent {
	out := make([]*agent.Agent, len(pop))
	for i, a := range pop {
		out[i] = a.Clone()
	}
	return out
}

func runWorkers(t *testing.T, m engine.Model, pop []*agent.Agent, opts engine.Options, ticks int) *engine.Distributed {
	t.Helper()
	e, err := engine.NewDistributed(m, clonePop(pop), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	return e
}

// eager rebalances at the slightest projected gain, so a short run moves
// its cuts.
var eager = partition.Balancer{MigrateCostPerAgent: 1e-9, HorizonTicks: 1000, MinRelativeGain: 0.01}

// TestOracleEquivalence is the registry-driven form of this codebase's
// core correctness claim, checked against the naive oracle, which shares
// no index, partition or runtime code with the engine: every registered
// scenario computes the oracle's simulation bit for bit on one partition,
// and on any number of partitions when its effects are local, the load
// balancer moving the cuts included. A non-local scenario's global ⊕
// folds per-partition partials beyond one partition, so there it agrees
// within the spec's tolerance. At this size the grids are sparse, so at
// least one run must group its selves by tiles wider than one cell.
func TestOracleEquivalence(t *testing.T) {
	const ticks = 10
	tiled := false
	for _, sp := range scenario.All() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			for _, seed := range []uint64{3, 17} {
				cfg := scenario.Config{Agents: 96, Extent: 30, Seed: seed}
				if sp.Name == "traffic" {
					cfg.Extent = 1800 // ≈ 115 vehicles at default density
				}
				m, base, err := sp.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := engine.Naive(m, clonePop(base), seed, ticks)
				if len(want) == 0 {
					t.Fatalf("seed %d: population died out; test config mis-tuned", seed)
				}
				for _, opts := range []engine.Options{
					{Workers: 1}, {Workers: 2}, {Workers: 8},
					{Workers: 4, LoadBalance: true, Balancer: eager, EpochTicks: 2},
				} {
					opts.Seed = seed
					e := runWorkers(t, m, base, opts, ticks)
					tiled = tiled || slices.Max(e.TileEdges()) > 1
					name := sp.Name
					if opts.LoadBalance {
						name += "/lb"
						if !slices.ContainsFunc(e.Epochs(), func(s engine.EpochStat) bool { return s.Rebalanced }) {
							t.Fatalf("%s seed=%d: the balancer never moved a cut", name, seed)
						}
					}
					tol := 0.0
					if !sp.LocalOnly && opts.Workers > 1 {
						tol = sp.Tolerance
					}
					comparePops(t, name, seed, opts.Workers, want, e.Agents(), tol)
				}
			}
		})
	}
	if !tiled {
		t.Error("no run grouped its selves by tiles wider than one cell")
	}
}

// comparePops fails unless got has want's agents with every state field
// within tol — and, at tol 0, equal bit for bit, effects and liveness too.
func comparePops(t *testing.T, name string, seed uint64, workers int, want, got []*agent.Agent, tol float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s seed=%d workers=%d: %d agents, oracle %d", name, seed, workers, len(got), len(want))
	}
	for i := range want {
		switch {
		case want[i].ID != got[i].ID:
			t.Fatalf("%s seed=%d workers=%d: agent %d at %d, oracle has %d", name, seed, workers, got[i].ID, i, want[i].ID)
		case tol == 0 && !want[i].Equal(got[i]):
			t.Fatalf("%s seed=%d workers=%d: agent %d differs:\n  oracle: %v\n  engine: %v", name, seed, workers, want[i].ID, want[i], got[i])
		}
		for j := range want[i].State {
			if d := math.Abs(want[i].State[j] - got[i].State[j]); d > tol {
				t.Fatalf("%s seed=%d workers=%d: agent %d state[%d] = %v, oracle %v (Δ%g > %g)",
					name, seed, workers, want[i].ID, j, got[i].State[j], want[i].State[j], d, tol)
			}
		}
	}
}

// TestOracleDigestAtBenchmarkShape runs the oracle on the benchmark's
// fish shape — 2000 fish, the default scenario — where the engine's
// multi-cell grids, grouped probes and halo joins all engage, and requires
// one and eight partitions to end on its digest.
func TestOracleDigestAtBenchmarkShape(t *testing.T) {
	if testing.Short() {
		t.Skip("O(n²) oracle over 2000 agents")
	}
	const seed, ticks = 5, 40
	sp, _ := scenario.Lookup("fish")
	m, base, err := sp.New(scenario.Config{Agents: 2000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want := agent.Digest(engine.Naive(m, clonePop(base), seed, ticks))
	for _, workers := range []int{1, 8} {
		if got := agent.Digest(runWorkers(t, m, base, engine.Options{Workers: workers, Seed: seed}, ticks).Agents()); got != want {
			t.Errorf("fish ×2000, %d ticks, %d workers: digest %016x, oracle %016x", ticks, workers, got, want)
		}
	}
}
