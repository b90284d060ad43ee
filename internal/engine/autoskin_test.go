package engine

import (
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/spatial"
)

// The index is a pure performance choice: a cost-model run probes the same
// cell grids, and the populations must be bit-identical to the default
// run's and to the KindScan reference's.
func TestAutoSkinModesBitIdentical(t *testing.T) {
	m := newFlockModel(8)
	base := makePop(m.s, 150, 60, 21)
	const ticks = 25 // crosses two epoch barriers

	run := func(index spatial.Kind, cm *cluster.CostModel) agent.Population {
		t.Helper()
		e, err := NewDistributed(m, clonePop(base), Options{
			Workers: 4, Index: index, Seed: 17, CostModel: cm,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunTicks(ticks); err != nil {
			t.Fatal(err)
		}
		return e.Agents()
	}

	cm := cluster.DefaultCostModel()
	auto := run(spatial.KindKDTree, nil)
	popsExactlyEqual(t, "auto vs cost-model kd", auto, run(spatial.KindKDTree, &cm))
	popsExactlyEqual(t, "auto vs scan", auto, run(spatial.KindScan, nil))
}
