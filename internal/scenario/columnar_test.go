package scenario

import (
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
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
// per-agent Env path, on the sequential engine and on the distributed
// engine at 1, 2 and 8 workers. The columnar path is a pure layout
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

				ref, err := engine.NewSequential(classic{m}, clonePop(base), spatial.KindKDTree, seed)
				if err != nil {
					t.Fatal(err)
				}
				col, err := engine.NewSequential(m, clonePop(base), spatial.KindKDTree, seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				if err := col.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				if len(ref.Agents()) == 0 {
					t.Fatalf("seed %d: population died out; test config mis-tuned", seed)
				}
				assertExact(t, sp.Name+"/seq", seed, 0, ref.Agents(), col.Agents())
				if r, c := ref.Visited(), col.Visited(); r != c {
					t.Errorf("seed %d seq: classic visited %d candidates, columnar %d", seed, r, c)
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
// behavior: once buffers have warmed up, a fish tick on the sequential
// engine allocates (near) nothing — the columns, candidate lists, probe
// scratch and update context are all reused. The measured window sits
// strictly between Morton repack epochs (tick 16 to tick 48 with
// packInterval 64), so the repack's arena is excluded too.
func TestFishTickSteadyStateAllocs(t *testing.T) {
	sp, ok := Lookup("fish")
	if !ok {
		t.Fatal("fish not registered")
	}
	m, pop, err := sp.New(Config{Agents: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.NewSequential(m, pop, spatial.KindKDTree, 1)
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
	// The bound leaves headroom for amortized Verlet-list growth (a list
	// append can still cross a capacity boundary as the school spreads)
	// while catching any per-agent or per-probe regression: 500 agents
	// would blow straight past it.
	if avg > 16 {
		t.Errorf("steady-state fish tick allocates %.1f times/op, want ≤ 16", avg)
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
			run := func(columnar, lb bool, failures *cluster.FailurePlan) []*agent.Agent {
				t.Helper()
				m, pop, err := sp.New(testConfig(sp, seed))
				if err != nil {
					t.Fatal(err)
				}
				if !columnar {
					m = classic{m}
				}
				e, err := engine.NewDistributed(m, pop, engine.Options{
					Workers: workers, Index: spatial.KindKDTree, Seed: seed,
					EpochTicks: epochTicks, CheckpointEveryEpochs: 1,
					LoadBalance: lb,
					Failures:    failures,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				if failures != nil && e.Recoveries() < 1 {
					t.Fatalf("expected at least one recovery, got %d", e.Recoveries())
				}
				return e.Agents()
			}

			lbRef := run(false, true, nil)
			lbCol := run(true, true, nil)
			if len(lbRef) == 0 {
				t.Fatal("population died out; test config mis-tuned")
			}
			assertExact(t, sp.Name+"/lb", seed, workers, lbRef, lbCol)

			recRef := run(false, false, cluster.NewFailurePlan().CrashAt(crashTick, 2))
			recCol := run(true, false, cluster.NewFailurePlan().CrashAt(crashTick, 2))
			assertExact(t, sp.Name+"/recovery", seed, workers, recRef, recCol)
		})
	}
}
