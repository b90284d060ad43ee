package engine

import (
	"errors"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/partition"
	"github.com/bigreddata/brace/internal/spatial"
	"github.com/bigreddata/brace/internal/transport"
)

// Epoch statistics must account for every agent: owned counts sum to the
// live population at each epoch.
func TestEpochOwnedCountsConsistent(t *testing.T) {
	m := newFlockModel(6)
	e, err := NewDistributed(m, makePop(m.s, 90, 45, 22), Options{
		Workers: 4, Index: spatial.KindKDTree, Seed: 5, EpochTicks: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(12); err != nil {
		t.Fatal(err)
	}
	for _, ep := range e.Epochs() {
		total := 0
		for _, c := range ep.OwnedCounts {
			total += c
		}
		if total != 90 {
			t.Fatalf("epoch %d owned counts sum to %d, want 90", ep.Tick, total)
		}
		if ep.Imbalance < 1 {
			t.Fatalf("epoch %d imbalance %v < 1", ep.Tick, ep.Imbalance)
		}
	}
}

// Load balancing is itself deterministic: two identically configured runs
// with LB on rebalance identically and end in the same state.
func TestLoadBalancerDeterministic(t *testing.T) {
	m := newFlockModel(4)
	mkrun := func() (agent.Population, []float64) {
		pop := makePop(m.s, 120, 20, 23)
		for i := 100; i < 120; i++ {
			pop[i].SetPos(m.s, geom.V(60+float64(i), 0))
		}
		e, err := NewDistributed(m, pop, Options{
			Workers: 4, Index: spatial.KindKDTree, Seed: 6,
			LoadBalance: true, EpochTicks: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunTicks(16); err != nil {
			t.Fatal(err)
		}
		return e.Agents(), e.Partition().Cuts()
	}
	a1, c1 := mkrun()
	a2, c2 := mkrun()
	popsExactlyEqual(t, "lb determinism", a1, a2)
	if len(c1) != len(c2) {
		t.Fatal("cut counts differ")
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("cut %d differs: %v vs %v", i, c1[i], c2[i])
		}
	}
}

// Recovery under load balancing, on both restore paths: the final state is
// bit-identical to the unfailed run's, and the balancer's cost restarts from
// zero with the restored state — checkpoints are taken at barriers, where
// the unfailed run's cost restarts too, so no checkpoint carries it.
func TestRestoreStartsCostEpoch(t *testing.T) {
	const (
		workers = 4
		epoch   = 4
		ticks   = 24
	)
	m := newFlockModel(6)
	base := makePop(m.s, 120, 30, 23)
	opts := Options{
		Workers: workers, Index: spatial.KindKDTree, Seed: 6, LoadBalance: true,
		Balancer:   partition.Balancer{MigrateCostPerAgent: 1e-9, HorizonTicks: 1000, MinRelativeGain: 0.01},
		EpochTicks: epoch, CheckpointEveryEpochs: 1,
	}
	// epochCost[tick] is the population-wide cost the barrier at tick found,
	// as last recorded: summed over partitions it counts every owned agent's
	// rows once, whatever the cuts.
	run := func(o Options, hook func(e *Distributed, tick uint64) error) (*Distributed, map[uint64]int64, error) {
		var e *Distributed
		epochCost := make(map[uint64]int64)
		o.EpochBarrier = func(tick uint64) error {
			epochCost[tick] = 0
			for p := 0; p < workers; p++ {
				epochCost[tick] += e.PartitionCost(p)
			}
			if hook != nil {
				return hook(e, tick)
			}
			return nil
		}
		e, err := NewDistributed(m, clonePop(base), o)
		if err != nil {
			t.Fatal(err)
		}
		return e, epochCost, e.RunTicks(ticks)
	}
	costsAreZero := func(e *Distributed, when string) {
		t.Helper()
		for p := 0; p < workers; p++ {
			if c := e.PartitionCost(p); c != 0 {
				t.Errorf("%s: partition %d cost = %d, want 0", when, p, c)
			}
		}
	}

	ref, refCost, err := run(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if refCost[12] == 0 {
		t.Fatal("the reference run charged nothing; test mis-tuned")
	}

	// The in-memory master: a crash in tick 9 is detected at that tick's
	// map barrier and rolls back to the checkpoint of barrier 8. The
	// re-executed epoch must be charged exactly what the unfailed run's
	// was, not that plus the failed attempt's.
	crashed := opts
	crashed.Transport = closeAt(transport.NewMem(workers), 19) // tick 9's map
	e, cost, err := run(crashed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Recoveries() != 1 {
		t.Fatalf("Recoveries = %d, want 1", e.Recoveries())
	}
	if cost[12] != refCost[12] {
		t.Errorf("re-executed epoch charged %d rows, the unfailed run %d", cost[12], refCost[12])
	}
	costsAreZero(e, "after the final barrier")
	popsExactlyEqual(t, "in-memory recovery under lb", ref.Agents(), e.Agents())

	// A coordinator-driven worker: the barrier hook keeps barrier 8's state
	// as a coordinator would and aborts the run at barrier 12, mid-protocol,
	// with the epoch's cost still on the books; Restore then rewinds.
	var cuts []float64
	var states map[int][]*Envelope
	aborted := false
	errAbort := errors.New("restore pending")
	e, _, err = run(opts, func(e *Distributed, tick uint64) error {
		switch {
		case tick == 8 && states == nil:
			cuts = e.Partition().Cuts()
			states = make(map[int][]*Envelope, workers)
			for p := 0; p < workers; p++ {
				states[p] = CloneEnvelopes(e.ExportPartition(p))
			}
		case tick == 12 && !aborted:
			aborted = true
			return errAbort
		}
		return nil
	})
	if !errors.Is(err, errAbort) {
		t.Fatalf("RunTicks = %v, want the barrier's abort", err)
	}
	var pending int64
	for p := 0; p < workers; p++ {
		pending += e.PartitionCost(p)
	}
	if pending == 0 {
		t.Fatal("aborted epoch left no cost behind; the restore has nothing to clear")
	}
	if err := e.Restore(8, cuts, e.LocalPartitions(), states); err != nil {
		t.Fatal(err)
	}
	costsAreZero(e, "right after Restore")
	if err := e.RunTicks(ticks - 8); err != nil {
		t.Fatal(err)
	}
	popsExactlyEqual(t, "restore under lb", ref.Agents(), e.Agents())
}
