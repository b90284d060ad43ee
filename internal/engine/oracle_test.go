package engine_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/scenario"
)

func clonePop(pop []*agent.Agent) []*agent.Agent {
	out := make([]*agent.Agent, len(pop))
	for i, a := range pop {
		out[i] = a.Clone()
	}
	return out
}

func runWorkers(t *testing.T, m engine.Model, pop []*agent.Agent, seed uint64, workers, ticks int) agent.Population {
	t.Helper()
	e, err := engine.NewDistributed(m, clonePop(pop), engine.Options{Workers: workers, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	return e.Agents()
}

// TestOracleEquivalence is the registry-driven form of this codebase's
// core correctness claim, checked against the naive oracle, which shares
// no index, partition or runtime code with the engine: every registered
// scenario computes the oracle's simulation bit for bit on one partition,
// and on any number of partitions when its effects are local. A
// non-local scenario's global ⊕ folds per-partition partials beyond one
// partition, so there it agrees within the spec's tolerance.
func TestOracleEquivalence(t *testing.T) {
	const ticks = 10
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
				for _, workers := range []int{1, 2, 8} {
					got := runWorkers(t, m, base, seed, workers, ticks)
					tol := 0.0
					if !sp.LocalOnly && workers > 1 {
						tol = sp.Tolerance
					}
					comparePops(t, sp.Name, seed, workers, want, got, tol)
				}
			}
		})
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

// digest is FNV-64a over the ID-ordered population's identity, liveness
// and exact state and effect bits: two populations share it only if they
// agree bit for bit.
func digest(pop []*agent.Agent) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, a := range pop {
		put(uint64(a.ID))
		if a.Dead {
			put(1)
		} else {
			put(0)
		}
		for _, v := range a.State {
			put(math.Float64bits(v))
		}
		for _, v := range a.Effect {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// TestOracleDigestAtBenchmarkShape runs the oracle on the benchmark's
// fish shape — 2000 fish, the default scenario — where the engine's
// multi-cell grids, columnar queries and halo joins all engage, and requires
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
	want := digest(engine.Naive(m, clonePop(base), seed, ticks))
	for _, workers := range []int{1, 8} {
		if got := digest(runWorkers(t, m, base, seed, workers, ticks)); got != want {
			t.Errorf("fish ×2000, %d ticks, %d workers: digest %016x, oracle %016x", ticks, workers, got, want)
		}
	}
}
