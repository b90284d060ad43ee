package scenario

import (
	"testing"

	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/spatial"
)

// TestCachedQueryEquivalence asserts the Verlet query cache is
// semantics-preserving for every registered scenario: the cached KD-tree
// engines (the default) compute bit-identical state to the KindScan
// reference, which never caches, on the sequential engine and on the
// distributed engine at 1, 2 and 8 workers. Sequential comparisons are
// exact even for non-local scenarios (one process, one fold order);
// distributed comparisons pin cached vs scan at the *same* worker count,
// where the fold grouping is identical, so they are exact for every
// scenario too.
func TestCachedQueryEquivalence(t *testing.T) {
	const ticks = 12
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			for _, seed := range []uint64{3, 17} {
				m, base, err := sp.New(testConfig(sp, seed))
				if err != nil {
					t.Fatal(err)
				}

				plain, err := engine.NewSequential(m, clonePop(base), spatial.KindScan, seed)
				if err != nil {
					t.Fatal(err)
				}
				cached, err := engine.NewSequential(m, clonePop(base), spatial.KindKDTree, seed)
				if err != nil {
					t.Fatal(err)
				}
				if err := plain.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				if err := cached.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				assertExact(t, sp.Name+"/seq-cached", seed, 1, plain.Agents(), cached.Agents())

				for _, workers := range []int{1, 2, 8} {
					dPlain, err := engine.NewDistributed(m, clonePop(base), engine.Options{
						Workers: workers, Index: spatial.KindScan, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					dCached, err := engine.NewDistributed(m, clonePop(base), engine.Options{
						Workers: workers, Index: spatial.KindKDTree, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := dPlain.RunTicks(ticks); err != nil {
						t.Fatal(err)
					}
					if err := dCached.RunTicks(ticks); err != nil {
						t.Fatal(err)
					}
					assertExact(t, sp.Name+"/dist-cached", seed, workers, dPlain.Agents(), dCached.Agents())
				}
			}
		})
	}
}

// TestCachedEquivalenceUnderLoadBalance pins the epoch-barrier
// invalidation contract where it matters most: with the load balancer on,
// the balancer's inputs (candidates-visited counters) differ between
// cached KD and scan runs, so partitionings may diverge — but for
// local-effect scenarios state must not, because partitioning never
// changes results. Runs long enough to cross several epoch boundaries and
// rebalances.
func TestCachedEquivalenceUnderLoadBalance(t *testing.T) {
	const ticks = 30
	for _, sp := range All() {
		if !sp.LocalOnly {
			continue
		}
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			m, base, err := sp.New(testConfig(sp, 11))
			if err != nil {
				t.Fatal(err)
			}
			run := func(index spatial.Kind) *engine.Distributed {
				e, err := engine.NewDistributed(m, clonePop(base), engine.Options{
					Workers: 4, Index: index, Seed: 11,
					LoadBalance: true, Tunables: engine.Tunables{EpochTicks: 5},
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.RunTicks(ticks); err != nil {
					t.Fatal(err)
				}
				return e
			}
			plain := run(spatial.KindScan)
			cached := run(spatial.KindKDTree)
			assertExact(t, sp.Name+"/lb-cached", 11, 4, plain.Agents(), cached.Agents())
		})
	}
}
