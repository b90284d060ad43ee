package scenario

import (
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/spatial"
)

// classic hides a model's QueryCols, so the engines — which pick the query
// path from what the model implements — run its closure-style Query. The
// embedded interface forwards Schema/Query/Update; HasNonLocalEffects is
// forwarded by hand because Model does not include it.
type classic struct{ engine.Model }

func (c classic) HasNonLocalEffects() bool {
	nl, ok := c.Model.(engine.NonLocalModel)
	return ok && nl.HasNonLocalEffects()
}

// TestColumnarEquivalence is the struct-of-arrays analogue of
// TestCrossEngineEquivalence: for every registered scenario, the columnar
// query path (the default for local-effect models that implement
// engine.ColumnarModel) must compute bit-identical state to the classic
// per-agent Env path at 1, 2 and 8 workers. The columnar path is a pure layout
// optimization — any divergence, even one ulp, is a bug. The candidates
// visited must match too: both paths promise identical probe accounting,
// because it is the load balancer's cost input.
func TestColumnarEquivalence(t *testing.T) {
	const ticks = 10
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			for _, seed := range []uint64{3, 17} {
				m, base, err := sp.New(testConfig(sp, seed))
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := m.(engine.ColumnarModel); !ok {
					t.Skipf("%s does not implement ColumnarModel", sp.Name)
				}

				for _, workers := range []int{1, 2, 8} {
					run := func(m engine.Model) ([]*agent.Agent, int64) {
						t.Helper()
						e, err := engine.NewDistributed(m, clonePop(base), engine.Options{
							Workers: workers, Index: spatial.KindKDTree, Seed: seed,
						})
						if err != nil {
							t.Fatal(err)
						}
						if err := e.RunTicks(ticks); err != nil {
							t.Fatal(err)
						}
						return e.Agents(), e.Visited()
					}
					refA, refV := run(classic{m})
					colA, colV := run(m)
					if len(refA) == 0 {
						t.Fatalf("seed %d: population died out; test config mis-tuned", seed)
					}
					assertExact(t, sp.Name+"/dist", seed, workers, refA, colA)
					if refV != colV {
						t.Errorf("seed %d workers %d: classic visited %d candidates, columnar %d", seed, workers, refV, colV)
					}
				}
			}
		})
	}
}

// TestFishTickSteadyStateAllocs pins the columnar tick's allocation
// behavior: once buffers have warmed up, a fish tick on one partition
// allocates (near) nothing — the columns, the cell grid, probe scratch,
// update context and the runtime's phase buffers are all reused. Each
// one-tick run also ends on an epoch barrier, whose statistics allocate a
// few times.
func TestFishTickSteadyStateAllocs(t *testing.T) {
	sp, ok := Lookup("fish")
	if !ok {
		t.Fatal("fish not registered")
	}
	m, pop, err := sp.New(Config{Agents: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.NewDistributed(m, pop, engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(16); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(32, func() {
		if err := e.RunTicks(1); err != nil {
			t.Fatal(err)
		}
	})
	// The bound leaves headroom for amortized buffer growth (a grid or
	// row buffer can still cross a capacity boundary as the school
	// spreads) while catching any per-agent or per-probe regression: 500
	// agents would blow straight past it.
	if avg > 16 {
		t.Errorf("steady-state fish tick allocates %.1f times/op, want ≤ 16", avg)
	}
}

// TestPartitionedTickSteadyStateAllocs pins replication's allocation
// behavior: at eight partitions a fish tick sends a few thousand replicas,
// and once each worker's replica arena has grown to the tick's peak they
// cost copies, not heap objects. What remains is per message and per
// goroutine, not per agent: cloning every replica made ≈ 21k.
func TestPartitionedTickSteadyStateAllocs(t *testing.T) {
	sp, ok := Lookup("fish")
	if !ok {
		t.Fatal("fish not registered")
	}
	m, pop, err := sp.New(Config{Agents: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.NewDistributed(m, pop, engine.Options{Workers: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(16); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(32, func() {
		if err := e.RunTicks(1); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 400 {
		t.Errorf("steady-state 8-partition fish tick allocates %.1f times/op, want ≤ 400", avg)
	}
}

// TestColumnarEquivalenceLoadBalanceAndRecovery runs the same ablation
// through the two dataflows that restructure a run mid-flight: the 1-D
// load balancer (repartitioning at epoch barriers) and checkpoint
// recovery after a worker crash. Both must stay bit-identical with the
// columnar path on or off.
func TestColumnarEquivalenceLoadBalanceAndRecovery(t *testing.T) {
	const (
		workers    = 4
		ticks      = 20
		epochTicks = 5
		crashTick  = 12
		seed       = 13
	)
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			m, _, err := sp.New(testConfig(sp, seed))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := m.(engine.ColumnarModel); !ok {
				t.Skipf("%s does not implement ColumnarModel", sp.Name)
			}
			run := func(columnar, lb, crash bool) []*agent.Agent {
				t.Helper()
				m, pop, err := sp.New(testConfig(sp, seed))
				if err != nil {
					t.Fatal(err)
				}
				if !columnar {
					m = classic{m}
				}
				opts := engine.Options{
					Workers: workers, Index: spatial.KindKDTree, Seed: seed,
					EpochTicks: epochTicks, CheckpointEveryEpochs: 1,
					LoadBalance: lb,
				}
				if crash {
					opts.Transport = crashAt(m, workers, crashTick, 0, false)
				}
				e, err := engine.NewDistributed(m, pop, opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				if crash && e.Recoveries() < 1 {
					t.Fatalf("expected at least one recovery, got %d", e.Recoveries())
				}
				return e.Agents()
			}

			lbRef := run(false, true, false)
			lbCol := run(true, true, false)
			if len(lbRef) == 0 {
				t.Fatal("population died out; test config mis-tuned")
			}
			assertExact(t, sp.Name+"/lb", seed, workers, lbRef, lbCol)

			recRef := run(false, false, true)
			recCol := run(true, false, true)
			assertExact(t, sp.Name+"/recovery", seed, workers, recRef, recCol)
		})
	}
}
