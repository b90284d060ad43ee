package engine

import (
	"testing"

	"github.com/bigreddata/brace/internal/agent"
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

// The satellite's core guarantee: the skin — default-seeded auto-tune, an
// explicit flag value, or no cache at all — is a pure performance knob.
// Every mode must produce bit-identical populations, so operators who pin
// -cache-skin explicitly keep bit-identity with auto-tuned runs.
func TestAutoSkinModesBitIdentical(t *testing.T) {
	m := newFlockModel(8)
	base := makePop(m.s, 150, 60, 21)
	const ticks = 25 // crosses two epoch barriers and two retune points

	run := func(cacheSkin float64) agent.Population {
		t.Helper()
		e, err := NewDistributed(m, clonePop(base), Options{
			Workers: 4, Index: spatial.KindKDTree, Seed: 17, Tunables: Tunables{CacheSkin: cacheSkin},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunTicks(ticks); err != nil {
			t.Fatal(err)
		}
		return e.Agents()
	}

	auto := run(0)
	popsExactlyEqual(t, "auto vs explicit", auto, run(2.5))
	popsExactlyEqual(t, "auto vs uncached", auto, run(-1))
}

// Auto mode engages only when the skin is left to the engine: an explicit
// CacheSkin or a CostModel pins it.
func TestAutoSkinGating(t *testing.T) {
	m := newFlockModel(8)
	for _, tc := range []struct {
		name string
		opts Options
		want bool
	}{
		{"default", Options{Workers: 2, Index: spatial.KindKDTree, Seed: 3}, true},
		{"explicit skin", Options{Workers: 2, Index: spatial.KindKDTree, Seed: 3, Tunables: Tunables{CacheSkin: 2}}, false},
		{"cache off", Options{Workers: 2, Index: spatial.KindKDTree, Seed: 3, Tunables: Tunables{CacheSkin: -1}}, false},
		{"non-kd index", Options{Workers: 2, Index: spatial.KindGrid, Seed: 3}, false},
	} {
		e, err := NewDistributed(m, makePop(m.s, 40, 30, 4), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if e.autoSkin != tc.want {
			t.Errorf("%s: autoSkin = %v, want %v", tc.name, e.autoSkin, tc.want)
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
	if !e.autoSkin {
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
