package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/geom"
)

// queryEnv implements Env (and, viewed as Cols, the query window) over
// one part's copy set. The copies are sorted by agent ID, and every probe
// yields its rows in ascending ID order no matter how they were found,
// making query phases deterministic across index kinds and partition
// layouts (and giving the BRASIL weak-reference visibility semantics of
// Theorem 1: agents outside the bound simply do not appear).
//
// Rows are the one probe representation: row i < len(copies) is core copy
// i (its slot in the core grid), row len(copies)+j is halo copy j. The
// probing agents ("selves") come in groups (part.query), and a group
// shares one candidate block: the rows near the box of its selves'
// positions, in ID order, with their positions beside them. Every probe
// of the group filters the block by its own disc, which keeps the order,
// so no probe sorts anything. Cols hands a probe's rows to the model as
// is, and the closure-style Env methods iterate them.
type queryEnv struct {
	// Bound per pass by part.query.
	c      *core
	grid   *cellGrid      // the core grid: slots as ids
	copies []*agent.Agent // ID-sorted core copies
	cols   *colSet        // per-state-field columns over all rows
	xs, ys []float64      // positions by row, core and halo
	// halo is non-nil only in a late (boundary) pass with peer-sent copies:
	// the core grid covers the core (self-sent) copies and blocks join in
	// the peer-sent ones.
	halo *haloJoin
	// The pass's ID order: coreRank[slot] is the slot's rank among the agent
	// IDs of core ∪ halo, rankRow[rank] the row holding that rank. Both are
	// the identity when the pass has no halo.
	coreRank, rankRow []int32

	// Bound per group by group.
	box geom.Rect // the selves' bounding box
	// one is set for a one-self group with a finite position: its block
	// is then exactly its probe at the block's radius.
	one bool
	// The group's candidate block (see group): the rows within blkR of
	// box, ascending by ID, and their positions once a filter needs them
	// (pack). blkR is negative while the group has none.
	blkR   float64
	blk    []int32
	bx, by []float64

	// Bound per agent: the self and its row.
	self *agent.Agent
	row  int32

	visited int64 // members the block builds and filters examined: the Visited gauge
	cost    int64 // rows returned to the model: the load balancer's input
	// out[d] holds the result rows of the probe issued at closure-iteration
	// depth d. A probe made from inside a ForEachVisible/Nearby callback
	// must not reuse the buffer the outer loop is still walking, so each
	// live iteration level owns one; steady-state probes allocate nothing.
	out   [][]int32
	depth int
	// words is the rank bitset, one bit per rank of the pass, and summary
	// its index, one bit per word that may be nonzero, so a drain reads
	// one summary word per 4096 ranks and then only the words holding
	// results. A block build that sets bits drains them before it
	// returns, so both are all zero between builds.
	words, summary []uint64
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

// nearby is visible restricted to the given radius, whose magnitude is
// cropped to the visibility bound.
func (q *queryEnv) nearby(radius float64) []int32 {
	if vis := q.c.schema.Visibility; vis > 0 && math.Abs(radius) > vis {
		radius = vis
	}
	return q.rows(radius)
}

// group binds a group of selves (rows of the pass, at least one) and runs
// their query phases. The selves share one candidate block, built lazily
// at their first probe's radius and rebuilt only when a later probe
// reaches further: a model that only looks within a short radius of a
// long visibility bound (a predator's bite) never pays for the bound.
func (q *queryEnv) group(selves []int32) {
	// A NaN self after the first leaves the box alone: its probes find
	// nothing, so the block need not cover them.
	first := geom.V(q.xs[selves[0]], q.ys[selves[0]])
	b := geom.Rect{Min: first, Max: first}
	for _, row := range selves[1:] {
		x, y := q.xs[row], q.ys[row]
		if x < b.Min.X {
			b.Min.X = x
		} else if x > b.Max.X {
			b.Max.X = x
		}
		if y < b.Min.Y {
			b.Min.Y = y
		} else if y > b.Max.Y {
			b.Max.Y = y
		}
	}
	q.box, q.blkR = b, -1
	q.one = len(selves) == 1 && finite(b)
	for _, row := range selves {
		q.self, q.row = q.agentAt(row), row
		q.c.model.Query((*Cols)(q), row)
	}
}

// alone runs each of the selves as a group of its own, in order.
func (q *queryEnv) alone(selves []int32) {
	for i := range selves {
		q.group(selves[i : i+1])
	}
}

// finite reports whether every coordinate of b, and its extent, is a
// finite number.
func finite(b geom.Rect) bool {
	w, d := b.Max.X-b.Min.X, b.Max.Y-b.Min.Y
	return !math.IsInf(w, 0) && !math.IsNaN(w) && !math.IsInf(d, 0) && !math.IsNaN(d)
}

// rows is the probe core: the rows within radius of self's position, self
// included, ascending by agent ID. It filters the group's block with the
// disc test every probe has always used, dx*dx+dy*dy <= r², dx = x-px,
// with the self's position read from the pass's position columns at its
// row, and keeps the block's order. A one-self group's block at the
// visibility bound is its visibility probe and is handed out as is.
//
// Two counters live here and in build and nowhere else. visited is the
// Visited gauge: the members the block builds and the filters examined, a
// function of the state, the partitioning, the index kind and the
// grouping. cost counts the rows returned, which depends on none of those
// — every probe yields exactly the agents within radius — and is what the
// load balancer is charged (see Distributed.PartitionCost).
func (q *queryEnv) rows(radius float64) []int32 {
	r := math.Abs(radius)
	if math.IsNaN(r) {
		return q.done(q.buf()) // no distance is within NaN
	}
	if !(r <= q.blkR) {
		q.build(r)
	}
	blk := q.blk
	if vis := q.c.schema.Visibility; q.one && vis > 0 && r == vis {
		// A block at the visibility bound is never rebuilt, so the rows
		// stay valid however deep the model's probes nest.
		q.cost += int64(len(blk))
		return blk
	}
	if len(q.bx) != len(blk) {
		q.pack()
	}
	px, py := q.xs[q.row], q.ys[q.row]
	r2 := radius * radius
	out := slices.Grow(q.buf(), len(blk))[:len(blk)]
	k := 0
	bx, by := q.bx[:len(blk)], q.by[:len(blk)]
	for i, x := range bx {
		dx, dy := x-px, by[i]-py
		out[k] = blk[i]
		if dx*dx+dy*dy <= r2 {
			k++
		}
	}
	q.visited += int64(len(blk))
	return q.done(out[:k])
}

// build makes the group's block at radius r: every row within r of the
// group's box (cellGrid.near), core grid and halo grid alike, in
// ascending ID order. The candidates come back in cell order; a block of
// a handful of rows is put in order by a comparison sort of its ranks and
// any other through the rank bitset (bitsetOrders). The positions follow
// when a filter first needs them. A box that is not finite (a self at NaN
// or ±Inf) has every row of the pass as its block, which the filters then
// cut down exactly.
func (q *queryEnv) build(r float64) {
	q.blkR = r
	rows := q.blk[:0]
	if !finite(q.box) {
		rows = append(rows, q.rankRow...)
		q.visited += int64(len(rows))
	} else {
		var seen int64
		rows, seen = q.grid.near(q.box, r, rows)
		if q.halo != nil {
			for i, slot := range rows {
				rows[i] = q.coreRank[slot]
			}
			var hs int64
			rows, hs = q.halo.grid.near(q.box, r, rows)
			seen += hs
		}
		q.visited += seen
		if bitsetOrders(len(rows), len(q.rankRow)) {
			for _, rank := range rows {
				q.mark(uint32(rank))
			}
			rows = q.drain(rows)
		} else {
			slices.Sort(rows)
			if q.halo != nil { // without one, a rank is its row
				for i, rank := range rows {
					rows[i] = q.rankRow[rank]
				}
			}
		}
	}
	q.blk = rows
	q.bx, q.by = q.bx[:0], q.by[:0]
}

// pack lays the block's positions out beside its rows for the filter. A
// one-self group whose probes all reach the visibility bound never needs
// them.
func (q *queryEnv) pack() {
	n := len(q.blk)
	q.bx, q.by = slices.Grow(q.bx[:0], n)[:n], slices.Grow(q.by[:0], n)[:n]
	for i, row := range q.blk {
		q.bx[i], q.by[i] = q.xs[row], q.ys[row]
	}
}

// done installs a probe's result as the current depth's buffer and charges
// its rows.
func (q *queryEnv) done(out []int32) []int32 {
	q.out[q.depth] = out
	q.cost += int64(len(out))
	return out
}

// mark sets rank r's bit.
func (q *queryEnv) mark(r uint32) {
	q.words[r>>6] |= 1 << (r & 63)
	q.summary[r>>12] |= 1 << ((r >> 6) & 63)
}

// drain empties the rank bitset into out — the rows of the set ranks,
// ascending — and returns the filled prefix. out must have room for every
// set bit.
func (q *queryEnv) drain(out []int32) []int32 {
	k := 0
	rankRow, words := q.rankRow, q.words
	for si, s := range q.summary {
		if s == 0 {
			continue
		}
		q.summary[si] = 0
		for ; s != 0; s &= s - 1 {
			wi := si<<6 + bits.TrailingZeros64(s)
			w := words[wi]
			words[wi] = 0
			for base := wi << 6; w != 0; w &= w - 1 {
				out[k] = rankRow[base+bits.TrailingZeros64(w)]
				k++
			}
		}
	}
	return out[:k]
}

// bitsetOrders is the size rule for ordering a block's n candidate ranks
// out of a copy set of the given size. The bitset costs a pass over the
// summary (one word per 4096 copies, ~0.5 ns each), one word per 64-rank
// block holding a candidate, and a few ns per row; slices.Sort is an
// insertion sort up to 12 elements (≤ 60 ns) and ~5·n·log₂n ns beyond. The
// factor 8 is the crossover measured for a sweep of every word (17 rows
// tied at 4000 copies), now applied to the summary. So the sort keeps the
// blocks of a handful of rows — a one-self group of a sparse scenario —
// and, at any block size, copy sets so large that even their summary
// outweighs sorting. Either way the order is the same.
func bitsetOrders(n, copies int) bool {
	return n > 12 && (copies+4095)/4096 <= 8*n
}

// haloJoin is the candidate source over a partition's peer-sent copies
// for one late pass, rebuilt by build once per partition-tick. At 2–3
// replicas per owned agent the halo outnumbers the core, so blocks cannot
// afford to scan it: the copies go into a cell grid whose ids are their
// ranks, and a block build reads only the cells its box touches. The grid
// holds positions and ranks, not agents — a probe touches no agent until
// the model reads its result rows.
type haloJoin struct {
	agents []*agent.Agent // ascending agent ID; halo row j is row len(copies)+j

	// ID ranks over core ∪ halo (see queryEnv.coreRank).
	coreRank, rankRow []int32

	grid cellGrid

	rank []int32 // build scratch: rank by halo row
}

// build indexes h.agents (already ID-sorted), at positions (xs[j], ys[j]),
// against the core's ID-sorted keys: one merge-join assigns every copy its
// rank, then the halo copies are binned by position with their ranks as
// ids, into one cell under scan (KindScan).
func (h *haloJoin) build(coreKeys []int64, xs, ys []float64, vis float64, scan bool) {
	nc, nh := len(coreKeys), len(h.agents)
	h.rank = resize(h.rank, nh)
	h.coreRank = resize(h.coreRank, nc)
	h.rankRow = resize(h.rankRow, nc+nh)
	i, j := 0, 0
	for r := range h.rankRow {
		if j >= nh || (i < nc && agent.ID(coreKeys[i]) < h.agents[j].ID) {
			h.coreRank[i], h.rankRow[r] = int32(r), int32(i)
			i++
			continue
		}
		h.rank[j], h.rankRow[r] = int32(r), int32(nc+j)
		j++
	}
	h.grid.scan = scan
	h.grid.build(xs, ys, h.rank, vis)
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
