package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/spatial"
)

// The ordered join — selves grouped by tiles of core-grid cells, each
// group's block built from the core grid (a cell grid, or one cell under
// the scan) and the halo grid and put in agent-ID order by the rank
// bitset or the comparison sort, each probe a filter of its group's block
// — against the definition it implements: for every copy, in radius? then
// sort by ID.

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

// Query probes through the closure view: a nested probe runs inside the
// outer one's callback, where the outer rows must stay live.
func (m *probeModel) Query(c *Cols, _ int32) {
	env := c.Env()
	self := env.Self()
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

// joinSource names one of the part's two index kinds.
type joinSource int

const (
	fromGrid joinSource = iota // the per-tick cell grid
	fromScan                   // the no-index scan
)

func (src joinSource) String() string { return [...]string{"grid", "scan"}[src] }

func (src joinSource) part(c *core) *part {
	if src == fromScan {
		return c.newPart(spatial.KindScan)
	}
	return c.newPart(spatial.KindKDTree)
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
	runGroups(t, name, m, src, core, halo, nil)
}

// runGroups is runJoin with the selves in the given groups instead of the
// pass's own: groups(n) splits the rows [0, n) of the pass, core then
// halo, into groups that each share one block. nil groups runs the pass.
func runGroups(t *testing.T, name string, m *probeModel, src joinSource, core, halo []*agent.Agent, groups func(n int) [][]int32) {
	t.Helper()
	c, err := newCore(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	sortAgents(core)
	sortAgents(halo)
	p := src.part(&c)
	p.build(core)
	rows := append([]int32(nil), p.allSlots(len(core))...)
	var join *haloJoin
	if halo != nil {
		join = &haloJoin{agents: halo}
		p.join(join)
		for j := range halo {
			rows = append(rows, int32(len(core)+j))
		}
	}
	m.outer, m.inner = map[agent.ID][]agent.ID{}, map[agent.ID][][]agent.ID{}
	if groups == nil {
		p.query(rows, join)
	} else {
		q := p.bind(join)
		for _, g := range groups(len(rows)) {
			if len(g) > 0 {
				q.group(g)
			}
		}
		p.cost += q.cost
	}

	all := append(append([]*agent.Agent(nil), core...), halo...)
	// radiusOf is the disc a probe of the given radius covers (0: the
	// visibility probe; a radius whose magnitude exceeds the bound: the
	// bound). every marks the unbounded visibility probe, which sees every
	// copy, positions not numbers included.
	radiusOf := func(r float64) (float64, bool) {
		vis := m.s.Visibility
		switch {
		case !(vis > 0) && r == 0:
			return 0, true
		case vis > 0 && (r == 0 || math.Abs(r) > vis):
			return vis, false
		}
		return r, false
	}
	oracle := func(self *agent.Agent, probe float64) []agent.ID {
		r, every := radiusOf(probe)
		pos, r2 := self.Pos(m.s), r*r
		ids := []agent.ID{}
		for _, a := range all {
			q := a.Pos(m.s)
			if dx, dy := q.X-pos.X, q.Y-pos.Y; every || dx*dx+dy*dy <= r2 {
				ids = append(ids, a.ID)
			}
		}
		slices.Sort(ids)
		return ids
	}
	var cost int64
	for _, self := range all {
		want := oracle(self, m.radius)
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
			wantIn := oracle(self, m.nested)
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
		{"sparse, grid coarsened", 40, 25, 1, 0, 400}, // cells capped at 4n+64
		{"dense", 150, 400, 8, 0, 20},
		{"4096+ rows", 1800, 3000, 4, 0, 120},
		// ≥ 16 selves per cell (edge 2.5, ~33 core copies to a cell): the
		// groups share large blocks, and short probes filter them.
		{"crowded cells", 1600, 1200, 5, 0, 30},
		{"crowded cells, short probe", 1600, 1200, 5, 1.5, 30},
	} {
		for _, src := range []joinSource{fromGrid, fromScan} {
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
	for _, src := range []joinSource{fromGrid, fromScan} {
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
		// The mirror image: halo rows — migrant owned agents — probing the
		// core grid from outside its bounding box.
		m = s()
		var halo []*agent.Agent
		for _, a := range core {
			halo = append(halo, at(m.s, a.ID, a.Pos(m.s).X, a.Pos(m.s).Y))
		}
		runJoin(t, "outside the core grid", m, src, lattice(m, 5500), halo)

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

		// A wide box rounds its centre and half-width: from the box around
		// these two selves (one group under the scan), the halo copy
		// exactly the visibility bound from the right-hand self measures
		// an ulp further, and only the block's slack keeps it.
		lo, hi, far := 60.466028797961954, 63.28755606209699, 66.61035632818944
		m = newProbeModel(far - hi)
		runJoin(t, "rounded box", m, src, []*agent.Agent{at(m.s, 1, lo, 0), at(m.s, 2, hi, 0)}, []*agent.Agent{at(m.s, 3, far, 0)})

		// Every copy at one point: a one-cell grid, core and halo alike.
		m = s()
		var same, sameHalo []*agent.Agent
		for i := 0; i < 70; i++ {
			same = append(same, at(m.s, agent.ID(2*i+1), 7, -3))
			sameHalo = append(sameHalo, at(m.s, agent.ID(2*i+2), 7, -3))
		}
		runJoin(t, "one point", m, src, same, sameHalo)
		m = s()
		runJoin(t, "one point, no halo", m, src, same, nil)

		// Non-finite extents: the grid falls back to one cell, nothing
		// panics, and the finite copies are still found — in the halo grid
		// and in the core grid.
		for name, bad := range map[string]geom.Vec{
			"+Inf x": {X: math.Inf(1), Y: 3}, "-Inf y": {X: 3, Y: math.Inf(-1)}, "NaN": {X: math.NaN(), Y: math.NaN()},
		} {
			m = s()
			halo := lattice(m, 100)
			halo = append(halo, at(m.s, 50, bad.X, bad.Y))
			runJoin(t, "non-finite halo "+name, m, src,
				[]*agent.Agent{at(m.s, 1, 99, 99), at(m.s, 200, 110, 110), at(m.s, 300, 500, 500)}, halo)
			m = s()
			core := lattice(m, 100)
			core = append(core, at(m.s, 50, bad.X, bad.Y))
			runJoin(t, "non-finite core "+name, m, src, core,
				[]*agent.Agent{at(m.s, 1, 99, 99), at(m.s, 200, 110, 110), at(m.s, 300, 500, 500)})
			m = s()
			runJoin(t, "non-finite core, no halo "+name, m, src, core, nil)
		}

		// A radius below the cell edge (half the visibility bound): the
		// predator's bite radius 2 against visibility 5, alone and nested
		// in the visibility probe.
		m = s()
		m.radius = 2
		rng := agent.NewRNG(5, 0, 0)
		box := geom.Rect{Max: geom.V(30, 30)}
		runJoin(t, "bite radius", m, src, scatter(m.s, rng, 120, 1, 2, box), scatter(m.s, rng, 90, 2, 2, box))
		m = s()
		m.radius = 2
		runJoin(t, "bite radius, no halo", m, src, scatter(m.s, rng, 200, 1, 1, box), nil)
		m = s()
		m.nested = 2
		runJoin(t, "bite radius nested", m, src, scatter(m.s, rng, 50, 1, 2, box), scatter(m.s, rng, 40, 2, 2, box))

		// Unbounded visibility: the visibility probe returns every row, and
		// Nearby probes a grid whose edge comes from the extent and size.
		for _, r := range []float64{0, 3, 40, math.Inf(1)} {
			m = newProbeModel(0)
			m.radius = r
			rng := agent.NewRNG(6, 0, 0)
			box := geom.Rect{Max: geom.V(60, 25)}
			name := fmt.Sprint("unbounded, radius ", r)
			runJoin(t, name, m, src, scatter(m.s, rng, 150, 1, 2, box), scatter(m.s, rng, 100, 2, 2, box))
			m = newProbeModel(0)
			m.radius = r
			runJoin(t, name+", no halo", m, src, scatter(m.s, rng, 150, 1, 1, box), nil)
		}
		m = newProbeModel(0)
		m.radius = 1
		runJoin(t, "unbounded, one point", m, src, same, sameHalo)

		// A probe issued from inside a ForEachVisible callback: the outer
		// rows must already be out of the bitset.
		m = s()
		m.nested = 3
		rng = agent.NewRNG(3, 0, 0)
		box = geom.Rect{Max: geom.V(25, 25)}
		runJoin(t, "nested", m, src, scatter(m.s, rng, 60, 1, 2, box), scatter(m.s, rng, 80, 2, 2, box))
		// The same inside groups of ≥ 16 selves: the nested probes filter
		// the block the outer probe's rows came from.
		m = s()
		m.nested = 2
		box = geom.Rect{Max: geom.V(10, 10)}
		runJoin(t, "nested, crowded cells", m, src, scatter(m.s, rng, 400, 1, 2, box), scatter(m.s, rng, 100, 2, 2, box))
		m = s()
		m.radius, m.nested = 2, 4
		runJoin(t, "nested, crowded cells, no halo", m, src, scatter(m.s, rng, 400, 1, 1, box), nil)

		// A short probe first, then one at the bound from inside its
		// callback: the block, built at the short radius, is rebuilt at the
		// bound while the outer rows are still being walked — for lone
		// selves and for crowded groups.
		m = s()
		m.radius, m.nested = 2, vis
		rng = agent.NewRNG(4, 0, 0)
		runJoin(t, "short then bound, sparse", m, src, scatter(m.s, rng, 60, 1, 2, geom.Rect{Max: geom.V(40, 40)}), scatter(m.s, rng, 40, 2, 2, geom.Rect{Max: geom.V(40, 40)}))
		m = s()
		m.radius, m.nested = 2, vis
		runJoin(t, "short then bound, crowded", m, src, scatter(m.s, rng, 300, 1, 2, box), scatter(m.s, rng, 100, 2, 2, box))

		// Selves exactly on cell edges (multiples of the edge, 2.5, from
		// the grid's origin), many to a cell, with copies exactly r away.
		m = s()
		var edge, edgeHalo []*agent.Agent
		for i := 0; i < 12; i++ {
			for j := 0; j < 12; j++ {
				x, y := 2.5*float64(i), 2.5*float64(j)
				edge = append(edge, at(m.s, agent.ID(4*(12*i+j)+1), x, y), at(m.s, agent.ID(4*(12*i+j)+2), x, y+2.5))
				edgeHalo = append(edgeHalo, at(m.s, agent.ID(4*(12*i+j)+3), x+5, y), at(m.s, agent.ID(4*(12*i+j)+4), x+3, y+4))
			}
		}
		runJoin(t, "selves on cell edges", m, src, edge, edgeHalo)
		m = s()
		runJoin(t, "selves on cell edges, no halo", m, src, edge, nil)

		// A group whose box is not finite, in a crowded pass: the NaN or
		// infinite self shares the core's one cell with every other self,
		// and the block must still hold the halo rows the finite selves
		// see.
		for name, bad := range map[string]geom.Vec{"+Inf": {X: math.Inf(1), Y: 1}, "NaN": {X: 2, Y: math.NaN()}} {
			m = s()
			core := scatter(m.s, agent.NewRNG(8, 0, 0), 200, 1, 2, geom.Rect{Max: geom.V(10, 10)})
			core = append(core, at(m.s, 1001, bad.X, bad.Y))
			runJoin(t, "non-finite group "+name, m, src, core,
				scatter(m.s, agent.NewRNG(9, 0, 0), 150, 2, 2, geom.Rect{Min: geom.V(-5, -5), Max: geom.V(15, 15)}))
		}

		// Migrant (halo-owned) selves far outside the core grid, crowded
		// together: each is its own group, and none may lose the halo
		// copies around it or the core copies in reach.
		m = s()
		rng = agent.NewRNG(10, 0, 0)
		runJoin(t, "migrants outside the core grid", m, src,
			scatter(m.s, rng, 100, 1, 2, geom.Rect{Max: geom.V(10, 10)}),
			scatter(m.s, rng, 300, 2, 2, geom.Rect{Min: geom.V(-20, 8), Max: geom.V(-9, 12)}))

		// Unbounded visibility with radii that grow within a query phase:
		// the block is built at the first probe's radius and rebuilt when a
		// nested probe reaches further, while the outer rows are still
		// being walked; under the scan every self shares one group.
		for _, radii := range [][2]float64{{3, 40}, {0.5, 7}, {40, 3}} {
			m = newProbeModel(0)
			m.radius, m.nested = radii[0], radii[1]
			rng := agent.NewRNG(12, 0, 0)
			box := geom.Rect{Max: geom.V(30, 20)}
			name := fmt.Sprint("unbounded, radius ", radii[0], " then ", radii[1])
			runJoin(t, name, m, src, scatter(m.s, rng, 120, 1, 2, box), scatter(m.s, rng, 60, 2, 2, box))
			m = newProbeModel(0)
			m.radius, m.nested = radii[0], radii[1]
			runJoin(t, name+", no halo", m, src, scatter(m.s, rng, 120, 1, 1, box), nil)
		}
	}
}

// One copy set, no halo, both index kinds: the same row sequence whether
// the size rule puts a group's block in order by the comparison sort (a
// short visibility bound: a handful of rows per block) or by the bitset
// (a long one).
func TestRowSequenceAcrossSources(t *testing.T) {
	const n, span = 3000, 100.0
	for _, vis := range []float64{1.5, 12} {
		m := newProbeModel(vis)
		pop := scatter(m.s, agent.NewRNG(11, 0, 0), n, 1, 1, geom.Rect{Max: geom.V(span, span)})
		for _, src := range []joinSource{fromGrid, fromScan} {
			runJoin(t, fmt.Sprint("visibility ", vis), m, src, pop, nil)
		}
		// Guard the premise: the blocks of the grid's groups sit on their
		// side of the rule — all of them under the long bound, all but a
		// few of the most crowded under the short one.
		c, err := newCore(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := fromGrid.part(&c)
		p.build(pop)
		xs, ys := p.cols.cols[m.s.PosX], p.cols.cols[m.s.PosY]
		boxes := map[int32]geom.Rect{}
		for slot, cell := range p.grid.cell {
			pos := geom.V(xs[slot], ys[slot])
			b, ok := boxes[cell]
			if !ok {
				b = geom.Rect{Min: pos, Max: pos}
			}
			b.Min.X, b.Min.Y = min(b.Min.X, pos.X), min(b.Min.Y, pos.Y)
			b.Max.X, b.Max.Y = max(b.Max.X, pos.X), max(b.Max.Y, pos.Y)
			boxes[cell] = b
		}
		wrong := 0
		for _, b := range boxes {
			blk, _ := p.grid.near(b, vis, nil)
			if bitsetOrders(len(blk), n) != (vis > 10) {
				wrong++
			}
		}
		if limit := len(boxes) / 50; wrong > limit || (vis > 10 && wrong > 0) {
			t.Fatalf("visibility %v: %d of %d blocks are on the wrong side of the size rule", vis, wrong, len(boxes))
		}
	}
}

// FuzzGroupBlock checks one group's block, and the probes that filter it,
// against a brute-force disc (runGroups' oracle): a random copy set split
// into core and halo, a random group of selves sharing one block (the
// other rows a second group), a visibility bound (≤ 0: unbounded), and an
// outer and a nested probe radius, cropped to the bound like any probe.
// Each copy is a marker byte and int16 lattice coordinates times scale:
// an odd marker makes it a halo copy, and 0xfd–0xff make a coordinate NaN
// or infinite.
func FuzzGroupBlock(f *testing.F) {
	rec := func(marker byte, x, y int16) []byte {
		b := []byte{marker}
		b = binary.LittleEndian.AppendUint16(b, uint16(x))
		return binary.LittleEndian.AppendUint16(b, uint16(y))
	}
	var crowd, edges []byte
	for i := int16(0); i < 48; i++ {
		crowd = append(crowd, rec(byte(i), i%7, i%5)...) // ≥ 16 selves to a cell
		edges = append(edges, rec(byte(i), 10*(i%6), 10*(i/6))...)
	}
	f.Add(crowd, 0.5, 5.0, ^uint64(0), 0.0, 0.0)
	f.Add(crowd, 0.5, 5.0, uint64(0x5555_5555), 2.0, 0.0)
	f.Add(crowd, 0.5, 5.0, uint64(0xffff), 0.0, 1.5)                             // nested in a shared block
	f.Add(edges, 0.25, 5.0, uint64(0x0f0f_0f0f), 0.0, 0.0)                       // selves on cell edges
	f.Add(edges, 0.25, 5.0, uint64(0xff), 5.0, 0.0)                              // copies exactly r away
	f.Add(crowd, 1.0, 0.0, uint64(0x3ff), 2.0, 6.0)                              // unbounded, growing radius
	f.Add(crowd, 1.0, 0.0, uint64(0x3ff), 6.0, 2.0)                              // unbounded, shrinking radius
	f.Add(append(crowd, rec(0xfe, 0, 0)...), 0.5, 5.0, ^uint64(0), 0.0, 0.0)     // an infinite self
	f.Add(append(crowd, rec(0xfd, 0, 0)...), 0.5, 5.0, ^uint64(0), 0.0, 0.0)     // a NaN self
	f.Add(append(edges, rec(1, -500, 3)...), 0.25, 5.0, uint64(1)<<48, 0.0, 0.0) // a migrant far out
	f.Fuzz(func(t *testing.T, data []byte, scale, vis float64, mask uint64, outer, nested float64) {
		m := newProbeModel(vis)
		m.radius, m.nested = outer, nested
		var core, halo []*agent.Agent
		for id := agent.ID(1); len(data) >= 5 && id <= 150; data, id = data[5:], id+1 {
			x := float64(int16(binary.LittleEndian.Uint16(data[1:]))) * scale
			y := float64(int16(binary.LittleEndian.Uint16(data[3:]))) * scale
			switch data[0] {
			case 0xfd:
				x = math.NaN()
			case 0xfe:
				x = math.Inf(1)
			case 0xff:
				y = math.Inf(-1)
			}
			if data[0]&1 == 1 {
				halo = append(halo, at(m.s, id, x, y))
			} else {
				core = append(core, at(m.s, id, x, y))
			}
		}
		runGroups(t, "fuzz", m, fromGrid, core, halo, func(n int) [][]int32 {
			var in, out []int32
			for r := 0; r < n; r++ {
				if r < 64 && mask>>r&1 == 1 {
					in = append(in, int32(r))
				} else {
					out = append(out, int32(r))
				}
			}
			return [][]int32{in, out}
		})
	})
}

func TestBitsetOrdersTable(t *testing.T) {
	for _, tc := range []struct {
		n, copies int
		want      bool
	}{
		{0, 0, false},
		{12, 250, false},     // insertion-sort territory
		{13, 250, true},      // a partition-sized copy set: bitset as soon as the sort leaves it
		{17, 4000, true},     // the scripted avoidance probe: one summary word
		{17, 16000, true},    // 4 summary words
		{32, 64000, true},    // 16
		{200, 200000, true},  // fish ×200k at one partition: 49 summary words, not a 200-slot sort
		{5, 1 << 20, false},  // a handful of rows never pays for the bitset
		{400, 1 << 20, true}, // 256 summary words ≤ 8·400
		{13, 1 << 22, false}, // 1024 summary words for 13 rows
	} {
		if got := bitsetOrders(tc.n, tc.copies); got != tc.want {
			t.Errorf("bitsetOrders(%d, %d) = %v, want %v", tc.n, tc.copies, got, tc.want)
		}
	}
}

func TestCellSpan(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		from, to, origin, edge float64
		n                      int
		lo, hi                 int
		ok                     bool
	}{
		{7, 17, 0, 5, 6, 1, 3, true},         // interior: three cells
		{-3, 7, 0, 5, 6, 0, 1, true},         // clipped on the low side
		{24, 34, 0, 5, 6, 4, 5, true},        // clipped on the high side
		{-10, 0, 0, 5, 6, 0, 0, true},        // touches the first cell's edge exactly
		{-10.1, -0.1, 0, 5, 6, 0, 0, false},  // just short of it
		{30, 40, 0, 5, 6, 5, 5, false},       // starts exactly where the last cell ends
		{29.9, 39.9, 0, 5, 6, 5, 5, true},    //
		{1e300, 1e300, 0, 5, 6, 0, 0, false}, // far outside: no int conversion
		{-1e300, -1e300, 0, 5, 6, 0, 0, false},
		{inf, inf, 0, 5, 6, 0, 0, false},
		{-inf, -inf, 0, 5, 6, 0, 0, false},
		{nan, nan, 0, 5, 6, 0, 0, false},
		{nan, 10, 0, 5, 6, 0, 0, false},
		{0, nan, 0, 5, 6, 0, 0, false},
		{-2, 8, 0, 5, 1, 0, 0, true},     // one cell
		{-inf, inf, 0, 5, 6, 0, 5, true}, // every cell
		{7, 23, 0, 5, 6, 1, 4, true},     // a box wider than a cell
	} {
		lo, hi, ok := cellSpan(tc.from, tc.to, tc.origin, tc.edge, tc.n)
		if ok != tc.ok || (ok && (lo != tc.lo || hi != tc.hi)) {
			t.Errorf("cellSpan([%v, %v] over %d cells) = [%d,%d] %v, want [%d,%d] %v",
				tc.from, tc.to, tc.n, lo, hi, ok, tc.lo, tc.hi, tc.ok)
		}
	}
}
