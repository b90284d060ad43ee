package scenario

import (
	"slices"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/partition"
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

// TestCachedEquivalenceUnderLoadBalance pins what the load balancer may
// see: its cost input is the rows probes return, a function of agent state
// and cuts alone, so for every registered scenario the per-partition cost
// of every epoch, the cuts the balancer then picks and the final state are
// identical between the cached KD-tree and the KindScan reference (never
// cached). Charged index candidates instead — as the engine once was —
// the two indexes examine different counts and pick different cuts.
// Identical cuts mean identical fold groupings, so non-local scenarios are
// exact here too.
func TestCachedEquivalenceUnderLoadBalance(t *testing.T) {
	const (
		workers = 4
		ticks   = 30
		epoch   = 5
	)
	// An eager balancer, so the cuts actually move within 30 ticks.
	bal := partition.Balancer{MigrateCostPerAgent: 1e-9, HorizonTicks: 1000, MinRelativeGain: 0.01}
	type epochRecord struct {
		cost []int64   // per partition, as the barrier finds it
		cuts []float64 // in force after the barrier
	}
	for _, sp := range All() {
		sp := sp
		t.Run(sp.Name, func(t *testing.T) {
			m, base, err := sp.New(testConfig(sp, 11))
			if err != nil {
				t.Fatal(err)
			}
			run := func(index spatial.Kind) ([]epochRecord, []*agent.Agent) {
				var e *engine.Distributed
				var log []epochRecord
				e, err := engine.NewDistributed(m, clonePop(base), engine.Options{
					Workers: workers, Index: index, Seed: 11,
					LoadBalance: true, Balancer: bal, EpochTicks: epoch,
					EpochBarrier: func(uint64) error {
						rec := epochRecord{cost: make([]int64, workers)}
						for p := range rec.cost {
							rec.cost[p] = e.PartitionCost(p)
						}
						log = append(log, rec)
						return nil
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < ticks/epoch; i++ {
					if err := e.RunTicks(epoch); err != nil {
						t.Fatal(err)
					}
					log[i].cuts = e.Partition().Cuts()
					for p := 0; p < workers; p++ {
						if c := e.PartitionCost(p); c != 0 {
							t.Fatalf("partition %d cost = %d after the barrier at tick %d, want 0", p, c, e.Tick())
						}
					}
				}
				return log, e.Agents()
			}
			refLog, refPop := run(spatial.KindScan)
			var charged int64
			moved := false
			for i, rec := range refLog {
				for _, c := range rec.cost {
					charged += c
				}
				moved = moved || (i > 0 && !slices.Equal(rec.cuts, refLog[i-1].cuts))
			}
			if charged == 0 || !moved {
				t.Fatalf("charged %d rows, cuts moved: %v; the equivalence was not exercised", charged, moved)
			}
			log, pop := run(spatial.KindKDTree)
			for i, rec := range log {
				if !slices.Equal(rec.cost, refLog[i].cost) {
					t.Fatalf("kd epoch %d: cost %v, scan reference %v", i, rec.cost, refLog[i].cost)
				}
				if !slices.Equal(rec.cuts, refLog[i].cuts) {
					t.Fatalf("kd epoch %d: cuts %v, scan reference %v", i, rec.cuts, refLog[i].cuts)
				}
			}
			assertExact(t, sp.Name+"/lb-kd", 11, workers, refPop, pop)
		})
	}
}
