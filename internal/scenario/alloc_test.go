package scenario

import (
	"testing"

	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/spatial"
)

// TestFishTickSteadyStateAllocs pins the tick's allocation
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
// cost copies, not heap objects. The exchange costs none either: batches
// travel as pointers to their outbox slots, the Mem transport reuses
// every inbox, and the runner pool spawns prebuilt funcs. What remains (5
// objects) is the epoch barrier each one-tick run ends on, not per agent
// or per message: cloning every replica would make ≈ 21k, and boxing
// every batch ≈ 40.
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
	t.Logf("%.1f allocations per tick", avg)
	if avg > 6.25 {
		t.Errorf("steady-state 8-partition fish tick allocates %.1f times/op, want ≤ 6.25", avg)
	}
}
