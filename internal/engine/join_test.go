package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/spatial"
)

// The ordered join — core candidates from whichever index source plus the
// halo cells, put in agent-ID order by the rank bitset — against the
// definition it implements: for every copy, in radius? then sort by ID.

// probeModel records the IDs every probe returns, in the order the model
// sees them. With nested > 0 each callback of the outer probe issues a
// second probe of that radius before the outer iteration continues.
type probeModel struct {
	s      *agent.Schema
	x, y   int
	radius float64 // 0: ForEachVisible; else Nearby(radius)
	nested float64

	outer map[agent.ID][]agent.ID
	inner map[agent.ID][][]agent.ID // one sequence per outer callback
}

func newProbeModel(vis float64) *probeModel {
	s := agent.NewSchema("Probe")
	m := &probeModel{s: s}
	m.x = s.AddState("x", true)
	m.y = s.AddState("y", true)
	s.AddEffect("e", false, agent.Sum)
	s.SetPosition("x", "y").SetVisibility(vis).SetReach(1)
	return m
}

func (m *probeModel) Schema() *agent.Schema           { return m.s }
func (m *probeModel) Update(*agent.Agent, *UpdateCtx) {}

func (m *probeModel) Query(self *agent.Agent, env Env) {
	probe := func(r float64, fn func(*agent.Agent)) {
		if r == 0 {
			env.ForEachVisible(fn)
		} else {
			env.Nearby(r, fn)
		}
	}
	m.outer[self.ID] = []agent.ID{} // a probe that finds nothing still ran
	probe(m.radius, func(p *agent.Agent) {
		m.outer[self.ID] = append(m.outer[self.ID], p.ID)
		if m.nested > 0 {
			var seq []agent.ID
			probe(m.nested, func(n *agent.Agent) { seq = append(seq, n.ID) })
			m.inner[self.ID] = append(m.inner[self.ID], seq)
		}
	})
}

// joinSource names one of the three candidate sources rows picks between.
type joinSource int

const (
	fromLists joinSource = iota // Verlet candidate lists
	fromWalk                    // cached index built without lists: the gate-off tree walk
	fromScan                    // the no-index scan
)

func (src joinSource) String() string { return [...]string{"lists", "walk", "scan"}[src] }

func (src joinSource) part(c *core) *part {
	switch src {
	case fromLists:
		return c.newPart(spatial.KindKDTree)
	case fromWalk:
		return &part{c: c, cached: spatial.NewCached(0, resolveSkin(c.schema, spatial.KindKDTree))}
	}
	return c.newPart(spatial.KindScan)
}

func at(s *agent.Schema, id agent.ID, x, y float64) *agent.Agent {
	a := agent.New(s, id)
	a.SetPos(s, geom.V(x, y))
	return a
}

func sortAgents(as []*agent.Agent) {
	slices.SortFunc(as, func(a, b *agent.Agent) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

// runJoin runs one query pass the way the late pass does — every core copy
// and every halo copy probes (a halo copy as a halo-owned row with no core
// slot) — and checks each recorded sequence against the brute-force
// oracle. halo == nil runs the pass without a halo join.
func runJoin(t *testing.T, name string, m *probeModel, src joinSource, core, halo []*agent.Agent) {
	t.Helper()
	c, err := newCore(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	sortAgents(core)
	sortAgents(halo)
	p := src.part(&c)
	p.build(core, nil)
	rows := append([]int32(nil), p.allSlots(len(core))...)
	var join *haloJoin
	if halo != nil {
		join = &haloJoin{agents: halo}
		join.build(m.s, p.keys)
		for j := range halo {
			rows = append(rows, int32(len(core)+j))
		}
	}
	m.outer, m.inner = map[agent.ID][]agent.ID{}, map[agent.ID][][]agent.ID{}
	p.query(rows, join)

	all := append(append([]*agent.Agent(nil), core...), halo...)
	radiusOf := func(r float64) float64 {
		if vis := m.s.Visibility; r == 0 || r > vis {
			return vis
		}
		return r
	}
	oracle := func(self *agent.Agent, r float64) []agent.ID {
		pos, r2 := self.Pos(m.s), r*r
		ids := []agent.ID{}
		for _, a := range all {
			q := a.Pos(m.s)
			if dx, dy := q.X-pos.X, q.Y-pos.Y; dx*dx+dy*dy <= r2 {
				ids = append(ids, a.ID)
			}
		}
		slices.Sort(ids)
		return ids
	}
	var cost int64
	for _, self := range all {
		want := oracle(self, radiusOf(m.radius))
		got, ok := m.outer[self.ID]
		if !ok {
			t.Fatalf("%s/%v: agent %d never probed", name, src, self.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s/%v: agent %d at %v sees\n  %v\nwant\n  %v", name, src, self.ID, self.Pos(m.s), got, want)
		}
		cost += int64(len(want))
		if m.nested > 0 {
			// The nested probes are self's own (the env probes around self
			// whoever the callback's neighbour is), one per outer row.
			wantIn := oracle(self, radiusOf(m.nested))
			if len(m.inner[self.ID]) != len(want) {
				t.Fatalf("%s/%v: agent %d ran %d nested probes, want %d", name, src, self.ID, len(m.inner[self.ID]), len(want))
			}
			for _, seq := range m.inner[self.ID] {
				if !slices.Equal(seq, wantIn) {
					t.Fatalf("%s/%v: agent %d nested probe sees\n  %v\nwant\n  %v", name, src, self.ID, seq, wantIn)
				}
				cost += int64(len(wantIn))
			}
		}
	}
	if p.cost != cost {
		t.Errorf("%s/%v: cost %d, want the %d rows returned", name, src, p.cost, cost)
	}
}

// scatter places n agents with IDs idBase+stride·i uniformly in the box.
func scatter(s *agent.Schema, rng *agent.RNG, n int, idBase, stride agent.ID, box geom.Rect) []*agent.Agent {
	out := make([]*agent.Agent, n)
	for i := range out {
		out[i] = at(s, idBase+stride*agent.ID(i),
			rng.Range(box.Min.X, box.Max.X), rng.Range(box.Min.Y, box.Max.Y))
	}
	return out
}

func TestOrderedJoinMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name         string
		ncore, nhalo int
		vis, radius  float64 // radius 0 = the visibility probe
		span         float64
	}{
		{"one word", 20, 30, 6, 0, 30},
		{"multi word", 90, 160, 5, 0, 40}, // > 64 rows
		{"multi word, short probe", 90, 160, 5, 2.5, 40},
		{"sparse, grid coarsened", 40, 25, 1, 0, 400}, // cells capped at 4·|halo|+64
		{"dense", 150, 400, 8, 0, 20},
		{"4096+ rows", 1800, 3000, 4, 0, 120},
	} {
		for _, src := range []joinSource{fromLists, fromWalk} {
			m := newProbeModel(tc.vis)
			m.radius = tc.radius
			rng := agent.NewRNG(7, uint64(tc.ncore), agent.ID(tc.nhalo))
			// Core in the middle strip, halo in the bands either side and
			// overlapping it; interleaved IDs so ranks alternate.
			box := geom.Rect{Min: geom.V(0, 0), Max: geom.V(tc.span, tc.span)}
			core := scatter(m.s, rng, tc.ncore, 2, 3, geom.Rect{Min: geom.V(tc.span/3, 0), Max: geom.V(2*tc.span/3, tc.span)})
			halo := scatter(m.s, rng, tc.nhalo, 1, 3, box)
			runJoin(t, tc.name, m, src, core, halo)
		}
	}
}

func TestOrderedJoinEdgeCases(t *testing.T) {
	const vis = 5
	s := func() *probeModel { return newProbeModel(vis) }
	// A halo wide and tall enough for a multi-cell grid: a 6×6 lattice of
	// pitch 4 over [100,120]².
	lattice := func(m *probeModel, idBase agent.ID) []*agent.Agent {
		var out []*agent.Agent
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				out = append(out, at(m.s, idBase+agent.ID(6*i+j), 100+4*float64(i), 100+4*float64(j)))
			}
		}
		return out
	}
	for _, src := range []joinSource{fromLists, fromWalk} {
		// Probes entirely outside the halo's bounding box on each side, at
		// every distance class: far beyond the grid, just out of reach, and
		// reaching the edge cells. Core IDs above and below the halo's.
		m := s()
		var core []*agent.Agent
		id := agent.ID(1)
		for _, d := range []float64{1e9, 3 * vis, vis + 0.001, vis, vis - 0.001, 0.5} {
			for _, p := range []geom.Vec{
				{X: 100 - d, Y: 110}, {X: 120 + d, Y: 110}, {X: 110, Y: 100 - d}, {X: 110, Y: 120 + d},
				{X: 100 - d, Y: 100 - d}, {X: 120 + d, Y: 120 + d},
			} {
				core = append(core, at(m.s, id, p.X, p.Y))
				id += 1000 // half below the halo's IDs, half above
				if id > 12000 {
					id -= 11999
				}
			}
		}
		runJoin(t, "outside the bounding box", m, src, core, lattice(m, 5500))

		m = s()
		runJoin(t, "empty halo", m, src, scatter(m.s, agent.NewRNG(1, 0, 0), 40, 1, 1, geom.Rect{Max: geom.V(20, 20)}), []*agent.Agent{})

		m = s()
		runJoin(t, "single-copy halo", m, src,
			scatter(m.s, agent.NewRNG(2, 0, 0), 40, 1, 2, geom.Rect{Max: geom.V(12, 12)}),
			[]*agent.Agent{at(m.s, 40, 6, 6)})

		m = s()
		runJoin(t, "empty core", m, src, nil, lattice(m, 1))

		// Coincident positions: within the core, within the halo, and across.
		m = s()
		runJoin(t, "coincident", m, src,
			[]*agent.Agent{at(m.s, 1, 10, 10), at(m.s, 4, 10, 10), at(m.s, 6, 13, 10)},
			[]*agent.Agent{at(m.s, 2, 10, 10), at(m.s, 3, 13, 10), at(m.s, 5, 13, 10), at(m.s, 7, 30, 30)})

		// A copy at distance exactly r is visible (closed inequality): 3-4-5
		// triangles in both directions, core-to-halo and halo-to-core, and
		// straight along an axis where the cell span ends exactly at r.
		m = s()
		runJoin(t, "exactly r", m, src,
			[]*agent.Agent{at(m.s, 2, 0, 0), at(m.s, 4, 3, 4), at(m.s, 6, 40, 40)},
			[]*agent.Agent{at(m.s, 1, -3, -4), at(m.s, 3, 5, 0), at(m.s, 5, 0, -5), at(m.s, 7, 45, 40), at(m.s, 8, 40, 45.000001)})

		// Non-finite extents: the grid falls back to one cell, nothing
		// panics, and the finite copies are still found.
		for name, bad := range map[string]geom.Vec{
			"+Inf x": {X: math.Inf(1), Y: 3}, "-Inf y": {X: 3, Y: math.Inf(-1)}, "NaN": {X: math.NaN(), Y: math.NaN()},
		} {
			m = s()
			halo := lattice(m, 100)
			halo = append(halo, at(m.s, 50, bad.X, bad.Y))
			runJoin(t, "non-finite halo "+name, m, src,
				[]*agent.Agent{at(m.s, 1, 99, 99), at(m.s, 200, 110, 110), at(m.s, 300, 500, 500)}, halo)
		}

		// A probe issued from inside a ForEachVisible callback: the outer
		// rows must already be out of the bitset.
		m = s()
		m.nested = 3
		rng := agent.NewRNG(3, 0, 0)
		box := geom.Rect{Max: geom.V(25, 25)}
		runJoin(t, "nested", m, src, scatter(m.s, rng, 60, 1, 2, box), scatter(m.s, rng, 80, 2, 2, box))
	}
}

// One copy set, no halo, all three candidate sources: the same row sequence
// whether the size rule picks the comparison sort (short probes) or the
// bitset (the visibility probe).
func TestRowSequenceAcrossSources(t *testing.T) {
	const n, span, vis = 3000, 100.0, 12.0
	for _, radius := range []float64{1.5, 0} {
		m := newProbeModel(vis)
		m.radius = radius
		pop := scatter(m.s, agent.NewRNG(11, 0, 0), n, 1, 1, geom.Rect{Max: geom.V(span, span)})
		var sizes []int
		for _, src := range []joinSource{fromLists, fromWalk, fromScan} {
			runJoin(t, fmt.Sprint("radius ", radius), m, src, pop, nil)
			if src == fromWalk {
				for _, seq := range m.outer {
					sizes = append(sizes, len(seq))
				}
			}
		}
		// Guard the premise: each radius sits on its side of the rule.
		for _, k := range sizes {
			if bitsetOrders(k, n) != (radius == 0) {
				t.Fatalf("radius %v: a %d-row result is on the wrong side of the size rule", radius, k)
			}
		}
	}
}

func TestBitsetOrdersTable(t *testing.T) {
	for _, tc := range []struct {
		n, copies int
		want      bool
	}{
		{0, 0, false},
		{12, 250, false},    // insertion-sort territory
		{13, 250, true},     // a partition-sized copy set: bitset as soon as the sort leaves it
		{17, 4000, true},    // 63 words: the measured tie goes to the bitset
		{17, 16000, false},  // 250 words to sweep for 17 rows
		{32, 16000, true},   // 250 ≤ 256
		{32, 64000, false},  // 1000 words
		{128, 64000, true},  // a big result pays for the sweep
		{5, 1 << 20, false}, // never sweep a huge set for a few rows
		{400, 1 << 20, false},
	} {
		if got := bitsetOrders(tc.n, tc.copies); got != tc.want {
			t.Errorf("bitsetOrders(%d, %d) = %v, want %v", tc.n, tc.copies, got, tc.want)
		}
	}
}

func TestCellSpan(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		c, r, origin, edge float64
		n                  int
		lo, hi             int
		ok                 bool
	}{
		{12, 5, 0, 5, 6, 1, 3, true},    // interior: three cells
		{2, 5, 0, 5, 6, 0, 1, true},     // clipped on the low side
		{29, 5, 0, 5, 6, 4, 5, true},    // clipped on the high side
		{-5, 5, 0, 5, 6, 0, 0, true},    // touches the first cell's edge exactly
		{-5.1, 5, 0, 5, 6, 0, 0, false}, // just short of it
		{35, 5, 0, 5, 6, 5, 5, false},   // starts exactly where the last cell ends
		{34.9, 5, 0, 5, 6, 5, 5, true},
		{1e300, 5, 0, 5, 6, 0, 0, false}, // far outside: no int conversion
		{-1e300, 5, 0, 5, 6, 0, 0, false},
		{inf, 5, 0, 5, 6, 0, 0, false},
		{-inf, 5, 0, 5, 6, 0, 0, false},
		{nan, 5, 0, 5, 6, 0, 0, false},
		{3, 5, 0, 5, 1, 0, 0, true}, // one cell
	} {
		lo, hi, ok := cellSpan(tc.c, tc.r, tc.origin, tc.edge, tc.n)
		if ok != tc.ok || (ok && (lo != tc.lo || hi != tc.hi)) {
			t.Errorf("cellSpan(%v±%v over %d cells) = [%d,%d] %v, want [%d,%d] %v",
				tc.c, tc.r, tc.n, lo, hi, ok, tc.lo, tc.hi, tc.ok)
		}
	}
}
