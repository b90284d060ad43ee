package spatial

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/bigreddata/brace/internal/geom"
)

// slotCircle answers a slot probe the way the engines do: filter the
// cached candidate list by exact current distance. The list is sorted by
// slot, so the result needs no sort.
func slotCircle(c *CachedIndex, slot int32, rad float64) []int32 {
	cand, cur := c.SlotCandidates(slot)
	pos := cur[slot]
	r2 := rad * rad
	var ids []int32
	for _, j := range cand {
		if cur[j].Dist2(pos) <= r2 {
			ids = append(ids, j)
		}
	}
	return ids
}

// cachedCircle answers a disc probe through RangeCircleInto, sorted by
// slot (randomPoints' Point.ID).
func cachedCircle(c *CachedIndex, cen geom.Vec, rad float64) []int32 {
	slots, _ := c.RangeCircleInto(cen, rad, nil)
	slices.Sort(slots)
	return slots
}

func keysFor(pts []Point) []int64 {
	keys := make([]int64, len(pts))
	for i := range pts {
		keys[i] = int64(1000 + i)
	}
	return keys
}

// TestCachedGenericMatchesOracle: right after a build, disc probes must
// agree with the scan oracle on random probes.
func TestCachedGenericMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(300)
		base := randomPoints(rng, n, 60)
		oracle := NewScan()
		oracle.Build(append([]Point(nil), base...))
		cached := NewCached(12, 3)
		cached.BuildKeyed(append([]Point(nil), base...), keysFor(base), nil)

		for q := 0; q < 15; q++ {
			c := geom.V(rng.Float64()*70-5, rng.Float64()*70-5)
			rad := rng.Float64() * 20
			if got, want := cachedCircle(cached, c, rad), collectCircle(oracle, c, rad); !idsEqual(got, want) {
				t.Fatalf("RangeCircleInto mismatch: got=%v want=%v", got, want)
			}
		}
	}
}

// TestCachedReuseRandomWalk drives the keyed build through a random walk
// with steps below the reuse threshold and checks, at every tick, that
// disc and slot probes agree with a fresh scan over the *current*
// positions — stale tree and cached lists included.
func TestCachedReuseRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const skin = 2.0
	const probeRad = 8.0
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(200)
		pts := randomPoints(rng, n, 40)
		keys := keysFor(pts)
		cached := NewCached(probeRad, skin)
		cached.BuildKeyed(append([]Point(nil), pts...), keys, nil)

		for tick := 0; tick < 12; tick++ {
			// Step each point by at most skin/5 so several ticks reuse.
			for i := range pts {
				pts[i].Pos.X += rng.Float64()*skin/5 - skin/10
				pts[i].Pos.Y += rng.Float64()*skin/5 - skin/10
			}
			cached.BuildKeyed(append([]Point(nil), pts...), keys, nil)
			oracle := NewScan()
			oracle.Build(append([]Point(nil), pts...))

			c := geom.V(rng.Float64()*50-5, rng.Float64()*50-5)
			rad := rng.Float64() * 12
			if got, want := cachedCircle(cached, c, rad), collectCircle(oracle, c, rad); !idsEqual(got, want) {
				t.Fatalf("tick %d: disc probe mismatch: got=%v want=%v", tick, got, want)
			}
			slot := int32(rng.Intn(n))
			srad := rng.Float64() * probeRad
			want := collectCircle(oracle, pts[slot].Pos, srad)
			if got := slotCircle(cached, slot, srad); !idsEqual(got, want) {
				t.Fatalf("tick %d: slot probe mismatch: got=%v want=%v", tick, got, want)
			}
		}
		cs := cached.CacheStats()
		if cs.Reuses == 0 {
			t.Fatalf("random walk with small steps never reused (builds=%d)", cs.Builds)
		}
	}
}

// TestCachedStaleBoundary pins the exactly-s/2 edge: a displacement of
// exactly skin/2 must REUSE the cached lists and still answer exactly
// (the invariant's inequalities are closed); any displacement beyond must
// rebuild.
func TestCachedStaleBoundary(t *testing.T) {
	const skin = 2.0
	pts := []Point{
		{Pos: geom.V(0, 0), ID: 0},
		{Pos: geom.V(5, 0), ID: 1},
		{Pos: geom.V(10, 0), ID: 2},
		{Pos: geom.V(0, 7), ID: 3},
	}
	keys := keysFor(pts)
	cached := NewCached(6, skin)
	cached.BuildKeyed(append([]Point(nil), pts...), keys, nil)
	if got := cached.CacheStats(); got.Builds != 1 || got.Reuses != 0 {
		t.Fatalf("initial build: %+v", got)
	}

	// Move point 1 by exactly s/2 toward point 0; everyone else still.
	moved := append([]Point(nil), pts...)
	moved[1].Pos.X -= skin / 2
	cached.BuildKeyed(append([]Point(nil), moved...), keys, nil)
	if got := cached.CacheStats(); got.Builds != 1 || got.Reuses != 1 {
		t.Fatalf("exact s/2 displacement should reuse: %+v", got)
	}
	oracle := NewScan()
	oracle.Build(append([]Point(nil), moved...))
	for slot := int32(0); slot < 4; slot++ {
		for _, rad := range []float64{0, 1, 4, 4.5, 6} {
			want := collectCircle(oracle, moved[slot].Pos, rad)
			if got := slotCircle(cached, slot, rad); !idsEqual(got, want) {
				t.Fatalf("slot %d rad %g after exact s/2 move: got=%v want=%v", slot, rad, got, want)
			}
		}
	}

	// One nanometer past s/2: must rebuild.
	past := append([]Point(nil), moved...)
	past[3].Pos.Y += skin/2 + 1e-9
	cached.BuildKeyed(append([]Point(nil), past...), keys, nil)
	if got := cached.CacheStats(); got.Builds != 2 {
		t.Fatalf("displacement past s/2 should rebuild: %+v", got)
	}

	// Membership change: same length, one key swapped — must rebuild.
	swapped := append([]Point(nil), past...)
	keys2 := append([]int64(nil), keys...)
	keys2[2] = 999
	cached.BuildKeyed(swapped, keys2, nil)
	if got := cached.CacheStats(); got.Builds != 3 {
		t.Fatalf("key change should rebuild: %+v", got)
	}

	// Invalidate forces a rebuild even with zero displacement.
	cached.Invalidate()
	cached.BuildKeyed(append([]Point(nil), swapped...), keys2, nil)
	if got := cached.CacheStats(); got.Builds != 4 {
		t.Fatalf("Invalidate should force rebuild: %+v", got)
	}
}

// TestCachedProbeSet: lists restricted to a probe set answer exactly for
// probe slots, and a probe-set change forces a rebuild (ownership flips in
// the distributed engine must not reuse stale list coverage).
func TestCachedProbeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 120
	pts := randomPoints(rng, n, 30)
	keys := keysFor(pts)
	probe := []int32{3, 7, 40, 99}
	cached := NewCached(6, 2)
	cached.BuildKeyed(append([]Point(nil), pts...), keys, probe)
	oracle := NewScan()
	oracle.Build(append([]Point(nil), pts...))
	for _, slot := range probe {
		want := collectCircle(oracle, pts[slot].Pos, 5)
		if got := slotCircle(cached, slot, 5); !idsEqual(got, want) {
			t.Fatalf("probe slot %d: got=%v want=%v", slot, got, want)
		}
	}
	cached.BuildKeyed(append([]Point(nil), pts...), keys, probe)
	if got := cached.CacheStats(); got.Reuses != 1 {
		t.Fatalf("identical probe set should reuse: %+v", got)
	}
	cached.BuildKeyed(append([]Point(nil), pts...), keys, []int32{3, 7, 40, 98})
	if got := cached.CacheStats(); got.Builds != 2 {
		t.Fatalf("probe-set change should rebuild: %+v", got)
	}
}

// FuzzIndexConformance drives all three index implementations through a
// fuzzer-chosen point set, a displacement step, and a probe, requiring
// identical answers everywhere — including the cached index's stale-tree
// reuse path when the step stays within the skin.
func FuzzIndexConformance(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), false)
	f.Add(int64(7), uint8(200), uint8(0), true)
	f.Add(int64(42), uint8(1), uint8(9), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, stepN uint8, bigStep bool) {
		rng := rand.New(rand.NewSource(seed))
		const skin = 2.0
		pts := randomPoints(rng, int(n)+1, 50)
		keys := keysFor(pts)
		cached := NewCached(10, skin)
		cached.BuildKeyed(append([]Point(nil), pts...), keys, nil)

		// One displacement step per point: within s/2 normally; one point
		// jumps far when bigStep, which must trigger a rebuild.
		step := skin / 2 * float64(stepN%10) / 10
		for i := range pts {
			th := rng.Float64() * 2 * 3.141592653589793
			pts[i].Pos.X += step * cos(th)
			pts[i].Pos.Y += step * sin(th)
		}
		if bigStep {
			pts[0].Pos.X += 3 * skin
		}
		cached.BuildKeyed(append([]Point(nil), pts...), keys, nil)

		oracle := NewScan()
		oracle.Build(append([]Point(nil), pts...))
		kd := NewKDTree()
		kd.Build(append([]Point(nil), pts...))

		c := geom.V(rng.Float64()*60-5, rng.Float64()*60-5)
		rad := rng.Float64() * 15
		want := collectCircle(oracle, c, rad)
		if got := collectCircle(kd, c, rad); !idsEqual(got, want) {
			t.Fatalf("kd RangeCircleInto: got=%v want=%v", got, want)
		}
		if got := cachedCircle(cached, c, rad); !idsEqual(got, want) {
			t.Fatalf("cached RangeCircleInto: got=%v want=%v", got, want)
		}
		// Slot probes are only served while the adaptive gate keeps lists
		// on (a reuse-miss cycle turns them off); the engines check
		// HasLists the same way.
		if cached.HasLists() {
			slot := int32(rng.Intn(len(pts)))
			srad := rng.Float64() * 10
			if got, want := slotCircle(cached, slot, srad), collectCircle(oracle, pts[slot].Pos, srad); !idsEqual(got, want) {
				t.Fatalf("cached slot probe: got=%v want=%v", got, want)
			}
		}
	})
}

// TestCachedAdaptiveGate: a workload that outruns the skin every tick must
// stop paying for candidate lists after one build-miss cycle, and
// Invalidate must re-arm the gate (the epoch-barrier reset that keeps
// recovered runs' index work identical to unfailed ones).
func TestCachedAdaptiveGate(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pts := randomPoints(rng, 150, 40)
	keys := keysFor(pts)
	const skin = 1.0
	cached := NewCached(8, skin)
	cached.BuildKeyed(append([]Point(nil), pts...), keys, nil)
	if !cached.HasLists() {
		t.Fatal("first build should carry lists")
	}
	jump := func() {
		for i := range pts {
			pts[i].Pos.X += 2 * skin // every point outruns skin/2
		}
	}
	jump()
	cached.BuildKeyed(append([]Point(nil), pts...), keys, nil)
	if cached.HasLists() {
		t.Fatal("gate should disable lists after a zero-reuse build cycle")
	}
	// Disc probes stay exact with the gate off.
	oracle := NewScan()
	oracle.Build(append([]Point(nil), pts...))
	c := geom.V(20, 20)
	if got, want := cachedCircle(cached, c, 9), collectCircle(oracle, c, 9); !idsEqual(got, want) {
		t.Fatalf("gate-off disc probe: got=%v want=%v", got, want)
	}
	jump()
	cached.BuildKeyed(append([]Point(nil), pts...), keys, nil)
	if cached.HasLists() {
		t.Fatal("gate must stay off while disabled")
	}
	cached.Invalidate()
	jump()
	cached.BuildKeyed(append([]Point(nil), pts...), keys, nil)
	if !cached.HasLists() {
		t.Fatal("Invalidate should re-arm the adaptive gate")
	}
}

func cos(x float64) float64 { return geom.V(1, 0).Rotate(x).X }
func sin(x float64) float64 { return geom.V(1, 0).Rotate(x).Y }

// TestCachedStatsAccumulate: the cached index's counters survive builds —
// the engines take deltas — and split builds from reuses (the §5.2
// cost-model split).
func TestCachedStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pts := randomPoints(rng, 100, 30)
	keys := keysFor(pts)
	cached := NewCached(8, 2)
	cached.BuildKeyed(append([]Point(nil), pts...), keys, nil)
	v1 := cached.CacheStats().Visited
	if v1 == 0 {
		t.Fatal("list construction should count visited candidates")
	}
	cached.BuildKeyed(append([]Point(nil), pts...), keys, nil) // reuse
	if v := cached.CacheStats().Visited; v != v1 {
		t.Fatalf("reuse tick should not re-visit; %d -> %d", v1, v)
	}
	cached.Invalidate()
	cached.BuildKeyed(append([]Point(nil), pts...), keys, nil)
	if v := cached.CacheStats().Visited; v <= v1 {
		t.Fatalf("rebuild should accumulate, not reset: %d -> %d", v1, v)
	}
	cs := cached.CacheStats()
	if cs.Builds != 2 || cs.Reuses != 1 {
		t.Fatalf("cache stats = %+v, want 2 builds / 1 reuse", cs)
	}
}
