package engine

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/spatial"
)

// queryEnv implements Env (and, viewed as Cols, the columnar window) over
// one part's copy set. The copies are sorted by agent ID, and every probe
// yields its rows in ascending ID order no matter which index found them,
// making query phases deterministic across index kinds and partition
// layouts (and giving the BRASIL weak-reference visibility semantics of
// Theorem 1: agents outside the bound simply do not appear).
//
// Rows are the one probe representation: row i < len(copies) is core copy
// i (its slot in the index), row len(copies)+j is halo copy j. The rows
// core below probes the index and the halo; Cols hands its result to the
// model as is, and the closure-style Env methods iterate it.
type queryEnv struct {
	// Bound per pass by part.query.
	c      *core
	ix     spatial.Index  // the part's disc probe over copies, in slots: its cell grid or the scan
	copies []*agent.Agent // ID-sorted core copies
	cols   [][]float64    // columnar models: per-state-field columns over all rows
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

	visited int64 // grid members (or scanned copies) the probes examined: the Visited gauge
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
	// results. Every probe that sets bits drains them (ordered) before rows
	// returns, so both are all zero between probes and nested probes share
	// them.
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

// nearby is visible restricted to the given radius (cropped to the
// visibility bound).
func (q *queryEnv) nearby(radius float64) []int32 {
	if vis := q.c.schema.Visibility; vis > 0 && radius > vis {
		radius = vis
	}
	return q.rows(radius)
}

// rows is the probe core: the rows within radius of self's position, self
// included, ascending by agent ID. The index appends the in-range core
// slots, in cell (or scan) order; when the pass has a halo, its grid
// appends the in-range halo ranks. Every row found sets its rank's bit in
// the rank bitset and drain reads the rows back in rank order. The one
// exception is a pass with no halo whose result is a handful of rows (see
// bitsetOrders): a comparison sort of those slots beats the bitset.
//
// Two counters live here and nowhere else. visited is the Visited gauge:
// the grid members (or scanned copies) examined, a function of the state,
// the partitioning and the index kind. cost counts the rows returned,
// which does not depend on the index kind — every source yields exactly
// the agents within radius — and is what the load balancer is charged (see
// Distributed.PartitionCost).
func (q *queryEnv) rows(radius float64) []int32 {
	pos := q.self.Pos(q.c.schema)
	out, visited := q.ix.RangeCircleInto(pos, radius, q.buf())
	if q.halo == nil && !bitsetOrders(len(out), len(q.rankRow)) {
		q.visited += visited
		// Slots ascend with agent ID, so sorting slots sorts by ID.
		slices.Sort(out)
		return q.done(out)
	}
	rank := q.coreRank
	for _, j := range out {
		q.mark(uint32(rank[j]))
	}
	if q.halo != nil {
		n := len(out)
		var seen int64
		out, seen = q.halo.grid.RangeCircleInto(pos, radius, out)
		visited += seen
		for _, r := range out[n:] {
			q.mark(uint32(r))
		}
	}
	q.visited += visited
	return q.done(q.drain(out))
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

// bitsetOrders is the size rule for ordering a probe's n result slots out
// of a copy set of the given size. The bitset costs a pass over the
// summary (one word per 4096 copies, ~0.5 ns each), one word per 64-rank
// block holding a result, and a few ns per row; slices.Sort is an
// insertion sort up to 12 elements (≤ 60 ns) and ~5·n·log₂n ns beyond. The
// factor 8 is the crossover measured for a sweep of every word (17 rows
// tied at 4000 copies), now applied to the summary. So the sort keeps the
// results of a handful of rows and, at any result size, copy sets so large
// that even their summary outweighs sorting. Either way the order is the
// same.
func bitsetOrders(n, copies int) bool {
	return n > 12 && (copies+4095)/4096 <= 8*n
}

// haloJoin is the probe-side index over a partition's peer-sent copies for
// one late pass, rebuilt by build once per partition-tick. At 2–3 replicas
// per owned agent the halo outnumbers the core, so probes cannot afford to
// scan it: the copies go into a cell grid whose ids are their ranks, and a
// probe reads only the cells its disc touches. The grid holds positions
// and ranks, not agents — a probe touches no agent until the model reads
// its result rows.
type haloJoin struct {
	agents []*agent.Agent // ascending agent ID; halo row j is row len(copies)+j

	// ID ranks over core ∪ halo (see queryEnv.coreRank).
	coreRank, rankRow []int32

	grid cellGrid

	px, py []float64 // build scratch: positions by halo row
	rank   []int32   // build scratch: rank by halo row
}

// build indexes h.agents (already ID-sorted) against the core's ID-sorted
// keys: one merge-join assigns every copy its rank, then the halo copies
// are binned by position with their ranks as ids.
func (h *haloJoin) build(s *agent.Schema, coreKeys []int64) {
	nc, nh := len(coreKeys), len(h.agents)
	h.px, h.py, h.rank = resize(h.px, nh), resize(h.py, nh), resize(h.rank, nh)
	for j, a := range h.agents {
		p := a.Pos(s)
		h.px[j], h.py[j] = p.X, p.Y
	}
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
	h.grid.build(h.px, h.py, h.rank, s.Visibility)
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
