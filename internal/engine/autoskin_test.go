package engine

import (
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/spatial"
)

// The cached query path is a pure performance choice the engine derives:
// a cost-model run takes it too, and the populations must be bit-identical
// to the default KD-tree's and to the KindScan reference's.
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

// Every KD-tree partition holds the cached index, a CostModel or not, and
// runs the one skin Sequential runs (resolveSkin); the scan has no cache.
func TestAutoSkinGating(t *testing.T) {
	m := newFlockModel(8)
	cm := cluster.DefaultCostModel()
	for _, tc := range []struct {
		name string
		opts Options
		want bool
	}{
		{"default", Options{Workers: 2, Seed: 3}, true}, // the zero Index is the KD-tree
		{"non-kd index", Options{Workers: 2, Index: spatial.KindScan, Seed: 3}, false},
		{"cost model", Options{Workers: 2, Index: spatial.KindKDTree, Seed: 3, CostModel: &cm}, true},
	} {
		e, err := NewDistributed(m, makePop(m.s, 40, 30, 4), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		skin := resolveSkin(m.s, tc.opts.Index)
		if got := skin > 0; got != tc.want {
			t.Errorf("%s: resolveSkin = %v, want cached = %v", tc.name, skin, tc.want)
		}
		for w, p := range e.parts {
			if got := p.cached != nil; got != tc.want {
				t.Errorf("%s: partition %d cached = %v, want %v", tc.name, w, got, tc.want)
			}
		}
	}
}
