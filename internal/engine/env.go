package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/spatial"
)

// queryEnv implements Env (and, viewed as Cols, the columnar window) over
// one part's copy set. The copies are sorted by agent ID, and every probe
// yields its rows in ascending ID order no matter which index
// implementation found them, making query phases deterministic across
// index kinds and partition layouts (and giving the BRASIL weak-reference
// visibility semantics of Theorem 1: agents outside the bound simply do
// not appear).
//
// Rows are the one probe representation: row i < len(copies) is core copy
// i (its slot in the index), row len(copies)+j is halo copy j. The rows
// core below picks the candidate source once; Cols hands its result to the
// model as is, and the closure-style Env methods iterate it.
type queryEnv struct {
	// Bound per pass by part.query.
	c      *core
	ix     spatial.Index        // the part's disc probe over copies, in slots
	cached *spatial.CachedIndex // the cached KD-tree over copies; nil under the scan
	copies []*agent.Agent       // ID-sorted core copies
	cols   [][]float64          // columnar models: per-state-field columns over all rows
	lists  bool                 // the tick's build carries Verlet candidate lists
	// halo is non-nil only in a late (boundary) pass with peer-sent copies:
	// the index covers the core (self-sent) copies and probes join in the
	// peer-sent ones.
	halo *haloJoin
	// The pass's ID order: coreRank[slot] is the slot's rank among the agent
	// IDs of core ∪ halo, rankRow[rank] the row holding that rank. Both are
	// the identity when the pass has no halo.
	coreRank, rankRow []int32

	// Bound per agent.
	self *agent.Agent
	slot int32 // self's core slot (-1: self is a halo row)

	visited int64 // candidates the probes examined (Visited gauge)
	cost    int64 // rows returned to the model: the load balancer's input
	// out[d] holds the result rows of the probe issued at closure-iteration
	// depth d. A probe made from inside a ForEachVisible/Nearby callback
	// must not reuse the buffer the outer loop is still walking, so each
	// live iteration level owns one; steady-state probes allocate nothing.
	out   [][]int32
	depth int
	// words is the rank bitset, one bit per rank of the pass. Every probe
	// that sets bits drains them (ordered) before rows returns, so the words
	// are all zero between probes and nested probes share them.
	words []uint64
}

var _ Env = (*queryEnv)(nil)

// Self implements Env.
func (q *queryEnv) Self() *agent.Agent { return q.self }

// ForEachVisible implements Env.
func (q *queryEnv) ForEachVisible(fn func(*agent.Agent)) { q.each(q.visible(), fn) }

// Nearby implements Env.
func (q *queryEnv) Nearby(radius float64, fn func(*agent.Agent)) { q.each(q.nearby(radius), fn) }

// each calls fn for every row's agent. The rows stay live until it
// returns, so probes fn issues run one buffer level down.
func (q *queryEnv) each(rows []int32, fn func(*agent.Agent)) {
	q.depth++
	for _, r := range rows {
		fn(q.agentAt(r))
	}
	q.depth--
}

// agentAt resolves a row to its copy.
func (q *queryEnv) agentAt(row int32) *agent.Agent {
	if n := len(q.copies); int(row) >= n {
		return q.halo.agents[int(row)-n]
	}
	return q.copies[row]
}

// buf returns the emptied row buffer of the current iteration depth.
func (q *queryEnv) buf() []int32 {
	for len(q.out) <= q.depth {
		q.out = append(q.out, nil)
	}
	return q.out[q.depth][:0]
}

// visible returns the rows within the visibility bound of self, including
// self, in ascending agent-ID order. Valid until the next probe at the
// same iteration depth.
func (q *queryEnv) visible() []int32 {
	if vis := q.c.schema.Visibility; vis > 0 {
		return q.rows(vis)
	}
	// Unbounded: every row of the pass, core ∪ halo in ID order.
	return q.done(append(q.buf(), q.rankRow...))
}

// nearby is visible restricted to the given radius (cropped to the
// visibility bound).
func (q *queryEnv) nearby(radius float64) []int32 {
	if vis := q.c.schema.Visibility; vis > 0 && radius > vis {
		radius = vis
	}
	return q.rows(radius)
}

// rows is the probe core: the rows within radius of self's position, self
// included, ascending by agent ID. It picks the core candidate source once —
//
//   - the slot's Verlet candidate list when the tick's build carries lists
//     covering the radius: a linear distance filter with no tree walk, and
//     already slot-sorted (= ID-sorted), so with no halo to join the filter's
//     output is the result;
//   - otherwise the index's exact current-position disc probe: the cached
//     KD-tree's walk when no list covers the probe (no lists built,
//     adaptive gate off, radius beyond the model's probe-radius hint, or
//     self has no core slot), or the scan;
//
// — and, when the pass has a halo, joins in the halo cells the probe disc
// touches. ID order does not depend on where a candidate came from: every
// source sets the in-range candidate's bit in the rank bitset and drain
// reads the rows back in rank order. The one exception is a tree walk with
// no halo whose result is small next to the bitset (see bitsetOrders): a
// comparison sort of a handful of slots beats scanning every word.
//
// Two counters live here and nowhere else. visited is the Visited gauge:
// candidates examined, which depends on the source picked above. cost
// counts the rows returned, which does not — every source yields exactly
// the agents within radius — and is what the load balancer is charged (see
// Distributed.PartitionCost).
func (q *queryEnv) rows(radius float64) []int32 {
	out := q.buf()
	var pos geom.Vec
	r2 := radius * radius
	marked := 0 // candidates whose bit may be set: bounds the drained rows
	if q.lists && q.slot >= 0 && radius <= q.cached.ProbeRadius() {
		cand, cur := q.cached.SlotCandidates(q.slot)
		q.visited += int64(len(cand))
		pos = cur[q.slot]
		if q.halo == nil {
			// Pre-sized buffer with an unconditional store and a conditional
			// advance: the pass/fail branch is data-dependent (≈ the ratio of
			// the probe disc to the list's ρ+skin disc), so keeping it off the
			// store's critical path is worth a few percent on the hottest loop
			// in the engine.
			out = resize(out, len(cand))
			k := 0
			for _, j := range cand {
				p := cur[j]
				dx, dy := p.X-pos.X, p.Y-pos.Y
				out[k] = j
				if dx*dx+dy*dy <= r2 {
					k++
				}
			}
			return q.done(out[:k])
		}
		// Same filter, but the hit lands as a bit: an OR of 0 or 1, so the
		// data-dependent outcome never becomes a branch.
		words, rank := q.words, q.coreRank
		for _, j := range cand {
			p := cur[j]
			dx, dy := p.X-pos.X, p.Y-pos.Y
			var in uint64
			if dx*dx+dy*dy <= r2 {
				in = 1
			}
			r := uint32(rank[j])
			words[r>>6] |= in << (r & 63)
		}
		marked = len(cand)
	} else {
		pos = q.self.Pos(q.c.schema)
		var visited int64
		out, visited = q.ix.RangeCircleInto(pos, radius, out)
		q.visited += visited
		if q.halo == nil && !bitsetOrders(len(out), len(q.rankRow)) {
			// Slots ascend with agent ID, so sorting slots sorts by ID.
			slices.Sort(out)
			return q.done(out)
		}
		for _, j := range out {
			r := uint32(q.coreRank[j])
			q.words[r>>6] |= 1 << (r & 63)
		}
		marked = len(out)
	}
	if q.halo != nil {
		seen := q.halo.mark(q.words, pos, radius)
		q.visited += int64(seen)
		marked += seen
	}
	return q.done(q.drain(resize(out, marked)))
}

// done installs a probe's result as the current depth's buffer and charges
// its rows.
func (q *queryEnv) done(out []int32) []int32 {
	q.out[q.depth] = out
	q.cost += int64(len(out))
	return out
}

// drain empties the rank bitset into out — the rows of the set ranks,
// ascending — and returns the filled prefix. out must have room for every
// set bit.
func (q *queryEnv) drain(out []int32) []int32 {
	k := 0
	rankRow := q.rankRow
	for wi, w := range q.words {
		if w == 0 {
			continue
		}
		q.words[wi] = 0
		for base := wi << 6; w != 0; w &= w - 1 {
			out[k] = rankRow[base+bits.TrailingZeros64(w)]
			k++
		}
	}
	return out[:k]
}

// bitsetOrders is the size rule for ordering a tree walk's n result slots
// out of a copy set of the given size. The bitset costs a pass over every
// word (~0.5 ns each) plus a few ns per row; slices.Sort is an insertion
// sort up to 12 elements (≤ 60 ns) and ~5·n·log₂n ns beyond. Measured
// crossovers: 17 rows tie at 4000 copies, 32 rows at ~32000, and under
// ~1000 copies the bitset wins at any size the sort leaves insertion mode.
// So the sort keeps the results that are a handful of rows out of thousands
// (the scripted avoidance model: ~17 of 4000) and, at any result size,
// copy sets too large to sweep per probe. Either way the order is the same.
func bitsetOrders(n, copies int) bool {
	return n > 12 && (copies+63)/64 <= 8*n
}

// haloJoin is the probe-side index over a partition's peer-sent copies for
// one late pass, rebuilt by build once per partition-tick. At 2–3 replicas
// per owned agent the halo outnumbers the core, so probes cannot afford to
// scan it: the copies are binned into a uniform cell grid no finer than the
// visibility bound, and a probe reads only the ≤ 3×3 cells its disc
// touches. Cells hold positions and ID ranks, not agents — a probe touches
// no agent until the model reads its result rows.
type haloJoin struct {
	agents []*agent.Agent // ascending agent ID; halo row j is row len(copies)+j

	// ID ranks over core ∪ halo (see queryEnv.coreRank).
	coreRank, rankRow []int32

	// The grid: nx×ny cells of the given edge from (minX, minY), the copies
	// counting-sorted by cell (cell c holds [start[c], start[c+1])) as
	// position and rank columns. One cell when the extents are degenerate.
	minX, minY, edge float64
	nx, ny           int
	start            []int32
	xs, ys           []float64
	rank             []int32

	px, py    []float64 // build scratch: positions by halo row
	cell, cur []int32   // build scratch: cell by halo row, fill cursor by cell
}

// build indexes h.agents (already ID-sorted) against the core's ID-sorted
// keys: one merge-join assigns every copy its rank, and halo copies drop
// into their cell as the join reaches them.
func (h *haloJoin) build(s *agent.Schema, coreKeys []int64) {
	nc, nh := len(coreKeys), len(h.agents)
	h.px, h.py = resize(h.px, nh), resize(h.py, nh)
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for j, a := range h.agents {
		p := a.Pos(s)
		h.px[j], h.py[j] = p.X, p.Y
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}

	// Cell edge: the visibility bound — no probe reaches further, so a disc
	// spans at most three cells per axis — doubled until the grid is no
	// larger than the halo warrants. Extents that are empty or not finite
	// (no copies, a NaN or infinite coordinate) get the one cell that is
	// always correct.
	h.minX, h.minY, h.edge, h.nx, h.ny = minX, minY, s.Visibility, 1, 1
	if w, d := maxX-minX, maxY-minY; h.edge > 0 && w >= 0 && d >= 0 && !math.IsInf(w, 0) && !math.IsInf(d, 0) {
		fx, fy := math.Floor(w/h.edge)+1, math.Floor(d/h.edge)+1
		for fx*fy > float64(4*nh+64) {
			h.edge *= 2
			fx, fy = math.Floor(w/h.edge)+1, math.Floor(d/h.edge)+1
		}
		h.nx, h.ny = int(fx), int(fy)
	}
	ncells := h.nx * h.ny

	h.cell = resize(h.cell, nh)
	h.start = resize(h.start, ncells+1)
	clear(h.start)
	for j := range h.cell {
		c := 0
		if ncells > 1 {
			cx, cy := int((h.px[j]-minX)/h.edge), int((h.py[j]-minY)/h.edge)
			c = min(cy, h.ny-1)*h.nx + min(cx, h.nx-1)
		}
		h.cell[j] = int32(c)
		h.start[c+1]++
	}
	for c := 0; c < ncells; c++ {
		h.start[c+1] += h.start[c]
	}
	h.cur = append(h.cur[:0], h.start[:ncells]...)

	h.coreRank = resize(h.coreRank, nc)
	h.rankRow = resize(h.rankRow, nc+nh)
	h.xs, h.ys, h.rank = resize(h.xs, nh), resize(h.ys, nh), resize(h.rank, nh)
	i, j := 0, 0
	for r := range h.rankRow {
		if j >= nh || (i < nc && agent.ID(coreKeys[i]) < h.agents[j].ID) {
			h.coreRank[i], h.rankRow[r] = int32(r), int32(i)
			i++
			continue
		}
		k := h.cur[h.cell[j]]
		h.cur[h.cell[j]]++
		h.xs[k], h.ys[k], h.rank[k] = h.px[j], h.py[j], int32(r)
		h.rankRow[r] = int32(nc + j)
		j++
	}
}

// mark sets, in the rank bitset, the bit of every halo copy within radius
// of pos, and returns how many copies it examined: those of the cells the
// disc touches. The cells of one grid row are adjacent in the bin layout,
// so each row is one contiguous span.
func (h *haloJoin) mark(words []uint64, pos geom.Vec, radius float64) int {
	cxlo, cxhi, cylo, cyhi := 0, 0, 0, 0
	if h.nx*h.ny > 1 {
		// A copy passes the distance test below when its computed offset is
		// within radius, which rounding lets exceed pos±radius by an ulp or
		// so; the slack keeps such a copy's cell inside the span.
		reach := radius + (math.Abs(pos.X)+math.Abs(pos.Y)+radius)*1e-12
		var okX, okY bool
		cxlo, cxhi, okX = cellSpan(pos.X, reach, h.minX, h.edge, h.nx)
		cylo, cyhi, okY = cellSpan(pos.Y, reach, h.minY, h.edge, h.ny)
		if !okX || !okY {
			return 0
		}
	}
	r2 := radius * radius
	seen := 0
	for cy := cylo; cy <= cyhi; cy++ {
		s, e := h.start[cy*h.nx+cxlo], h.start[cy*h.nx+cxhi+1]
		xs, ys, rank := h.xs[s:e], h.ys[s:e], h.rank[s:e]
		seen += len(xs)
		for k, x := range xs {
			dx, dy := x-pos.X, ys[k]-pos.Y
			var in uint64
			if dx*dx+dy*dy <= r2 {
				in = 1
			}
			r := uint32(rank[k])
			words[r>>6] |= in << (r & 63)
		}
	}
	return seen
}

// cellSpan returns the cells [lo, hi], of an axis of n cells of the given
// edge starting at origin, that the interval [c-r, c+r] touches; ok is false
// when it touches none (or c is not a number). The comparisons run on the
// float quotients, so a probe far outside the grid never converts an
// out-of-range value to int.
func cellSpan(c, r, origin, edge float64, n int) (lo, hi int, ok bool) {
	flo, fhi := (c-r-origin)/edge, (c+r-origin)/edge
	if !(fhi >= 0 && flo < float64(n)) {
		return 0, 0, false
	}
	if flo > 0 {
		lo = int(flo)
	}
	hi = n - 1
	if fhi < float64(hi) {
		hi = int(fhi)
	}
	return lo, hi, true
}

// Assign implements Env.
func (q *queryEnv) Assign(target *agent.Agent, effectIndex int, value float64) {
	if !q.c.nonLocal && target.ID != q.self.ID {
		panic(fmt.Sprintf(
			"engine: non-local effect assignment (agent %d -> agent %d) in a local-effects model; implement NonLocalModel",
			q.self.ID, target.ID))
	}
	if q.c.isSum[effectIndex] {
		// Devirtualized sum fold: every hot model accumulates with sum,
		// and the interface dispatch per neighbor per field is measurable.
		target.Effect[effectIndex] += value
		return
	}
	c := q.c.combs[effectIndex]
	target.Effect[effectIndex] = c.Combine(target.Effect[effectIndex], value)
}

// effectCombs caches the per-index combinators of a schema.
func effectCombs(s *agent.Schema) []agent.Combinator {
	combs := make([]agent.Combinator, s.NumEffect())
	for _, f := range s.Fields() {
		if f.Kind == agent.Effect {
			combs[f.Index] = f.Comb
		}
	}
	return combs
}

// sumMask marks the effect indexes folded by the plain sum combinator, the
// Assign fast path.
func sumMask(combs []agent.Combinator) []bool {
	mask := make([]bool, len(combs))
	for i, c := range combs {
		mask[i] = c == agent.Sum
	}
	return mask
}

// effectsAreIdentity reports whether eff equals the identity vector θ; the
// non-local reduce₁ only ships replicas whose effects were actually touched
// (App. A: "∀i s.t. fᵗᵢ ≠ θ").
func effectsAreIdentity(combs []agent.Combinator, eff []float64) bool {
	for i, c := range combs {
		if eff[i] != c.Identity() {
			return false
		}
	}
	return true
}
