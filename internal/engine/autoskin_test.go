package engine

import (
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/spatial"
)

func TestAutoSkinForClamps(t *testing.T) {
	const rho = 8.0
	for _, tc := range []struct {
		step, want float64
	}{
		{0, rho / 16},    // floor: near-static populations keep a minimal margin
		{0.01, rho / 16}, // still under the floor
		{0.5, 2},         // 4×step inside the band
		{10, rho / 2},    // ceiling: fast movers never blow the probe radius
	} {
		if got := autoSkinFor(tc.step, rho); got != tc.want {
			t.Errorf("autoSkinFor(%v, %v) = %v, want %v", tc.step, rho, got, tc.want)
		}
	}
}

// The cached, auto-tuned query path is a pure performance choice the
// engine derives: it must produce populations bit-identical to the two
// uncached configurations that remain — the KD-tree under a CostModel and
// the KindScan reference.
func TestAutoSkinModesBitIdentical(t *testing.T) {
	m := newFlockModel(8)
	base := makePop(m.s, 150, 60, 21)
	const ticks = 25 // crosses two epoch barriers and two retune points

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
	popsExactlyEqual(t, "auto vs uncached kd", auto, run(spatial.KindKDTree, &cm))
	popsExactlyEqual(t, "auto vs scan", auto, run(spatial.KindScan, nil))
}

// The cache (and with it the auto-tuned skin) engages exactly when the
// index is the KD-tree and no CostModel asks for per-tick-rebuild
// accounting.
func TestAutoSkinGating(t *testing.T) {
	m := newFlockModel(8)
	cm := cluster.DefaultCostModel()
	for _, tc := range []struct {
		name string
		opts Options
		want bool
	}{
		{"default", Options{Workers: 2, Index: spatial.KindKDTree, Seed: 3}, true},
		{"non-kd index", Options{Workers: 2, Index: spatial.KindScan, Seed: 3}, false},
		{"cost model", Options{Workers: 2, Index: spatial.KindKDTree, Seed: 3, CostModel: &cm}, false},
	} {
		e, err := NewDistributed(m, makePop(m.s, 40, 30, 4), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.seedSkin > 0 && e.parts[0].cached != nil; got != tc.want {
			t.Errorf("%s: cached auto-skin = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// The retune actually happens and lands inside the clamp band. Observed
// via tunedSkin: the runtime runs an epoch barrier at the end of every
// RunTicks call, and barriers re-seed the live skin and wipe the step
// observations (the policy that keeps recovered and rebalanced runs
// identical) — so the live cache state after RunTicks never shows the
// retune.
func TestAutoSkinRetunesWithinBand(t *testing.T) {
	// One worker: a single partition's key set is stable tick over tick
	// (flocking has no births or deaths), so displacement observations are
	// guaranteed. Multi-worker runs observe only churn-free ticks — agents
	// crossing partitions reset the comparison — which is timing-free but
	// not guaranteed to sample in a short test.
	m := newFlockModel(8)
	e, err := NewDistributed(m, makePop(m.s, 150, 60, 21), Options{
		Workers: 1, Index: spatial.KindKDTree, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.seedSkin == 0 {
		t.Fatal("auto mode should engage")
	}
	// 15 ticks: barrier at 10, warmup observations at 11-12, retune at 13.
	if err := e.RunTicks(15); err != nil {
		t.Fatal(err)
	}
	for w, p := range e.parts {
		c := p.cached
		if c == nil {
			continue
		}
		rho := c.ProbeRadius()
		tuned := e.tunedSkin[w]
		if tuned == 0 {
			t.Errorf("worker %d never retuned", w)
			continue
		}
		if tuned < rho/16 || tuned > rho/2 {
			t.Errorf("worker %d retuned skin %v outside clamp band [%v, %v]", w, tuned, rho/16, rho/2)
		}
		// The trailing barrier re-seeded the live skin and restarted the
		// observation window from the prebuild.
		if s := c.Skin(); s != e.seedSkin {
			t.Errorf("worker %d live skin %v, want re-seeded %v after the trailing barrier", w, s, e.seedSkin)
		}
	}
}
