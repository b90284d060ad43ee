package engine

import (
	"fmt"
	"slices"
	"sort"

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
	c      *core
	ix     spatial.Index        // built over copies (Point.ID = slot)
	cached *spatial.CachedIndex // non-nil: ix is the cached KD-tree

	// Bound per pass by part.query.
	copies []*agent.Agent // ID-sorted core copies
	cols   [][]float64    // columnar models: per-state-field columns over all rows
	lists  bool           // the tick's build carries Verlet candidate lists
	// halo is non-empty only in the overlapped late pass: the index covers
	// the core (self-sent) copies and probes merge in the ID-sorted
	// peer-sent copies by linear scan.
	halo haloArrays

	// Bound per agent.
	self *agent.Agent
	slot int32 // self's core slot (-1: self is a halo row)

	visited int64 // candidates the cached paths examined (Visited gauge)
	cost    int64 // rows returned to the model: the load balancer's input
	// out[d] holds the result rows of the probe issued at closure-iteration
	// depth d. A probe made from inside a ForEachVisible/Nearby callback
	// must not reuse the buffer the outer loop is still walking, so each
	// live iteration level owns one; steady-state probes allocate nothing.
	out   [][]int32
	depth int
	hits  []int32 // halo scan scratch, consumed before rows returns
	nnbuf []spatial.Point
}

// haloArrays is the probe-side view of a partition's peer-sent copies,
// ascending by agent ID.
type haloArrays struct {
	agents []*agent.Agent
	pos    []geom.Vec
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
	// Unbounded visibility never coexists with a halo (the overlapped path
	// requires the cached index, which requires a bound), so all rows are
	// the core rows.
	out := q.buf()
	for i := range q.copies {
		out = append(out, int32(i))
	}
	q.out[q.depth] = out
	q.cost += int64(len(out))
	return out
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
// included, ascending by agent ID. It picks the candidate source once —
//
//   - the slot's Verlet candidate list when the tick's build carries lists
//     covering the radius: already slot-sorted (= ID-sorted), so the probe
//     is a linear distance filter with no tree walk and no sort;
//   - an exact current-position circle query against the cached index when
//     no list covers the probe (adaptive gate off, radius beyond the
//     model's probe-radius hint, or self has no core slot);
//   - the plain index's RangeCircle otherwise;
//
// — then merges the halo when the pass has one. The two cached sources are
// read-only on shared state, so one env per worker-pool chunk may probe
// concurrently (a plain index counts its own probes; part.query runs it
// serially). Two counters live here and nowhere else. visited is the cached
// paths' share of the Visited gauge: candidates examined, which depends on
// the source picked above. cost counts the rows returned, which does not —
// every source yields exactly the agents within radius — and is what the
// load balancer is charged (see Distributed.PartitionCost).
func (q *queryEnv) rows(radius float64) []int32 {
	out := q.buf()
	var pos geom.Vec
	r2 := radius * radius
	if q.lists && q.slot >= 0 && radius <= q.cached.ProbeRadius() {
		cand, cur := q.cached.SlotCandidates(q.slot)
		q.visited += int64(len(cand))
		pos = cur[q.slot]
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
		out = out[:k]
	} else {
		pos = q.self.Pos(q.c.schema)
		if q.cached != nil {
			var visited int64
			out, visited = q.cached.RangeCircleInto(pos, radius, out)
			q.visited += visited
		} else {
			d := q.depth
			q.out[d] = out
			q.ix.RangeCircle(pos, radius, func(p spatial.Point) {
				q.out[d] = append(q.out[d], p.ID)
			})
			out = q.out[d]
		}
		// Slots ascend with agent ID, so sorting slots sorts by ID.
		slices.Sort(out)
	}
	if len(q.halo.agents) > 0 {
		out = q.mergeHalo(out, pos, r2)
	}
	q.out[q.depth] = out
	q.cost += int64(len(out))
	return out
}

// mergeHalo extends a probe's ID-ascending core rows with the halo copies
// in range, found by a linear distance scan — the halo is small, just the
// replicas in the visibility band plus any post-rebalance migrants, so a
// scan beats building a second index. Both sides ascend by agent ID and
// the merge (in place, from the back) yields their union in ascending ID
// order: the exact row sequence a single combined index produces.
func (q *queryEnv) mergeHalo(rows []int32, pos geom.Vec, r2 float64) []int32 {
	hits := q.hits[:0]
	q.visited += int64(len(q.halo.agents))
	for j, hp := range q.halo.pos {
		dx, dy := hp.X-pos.X, hp.Y-pos.Y
		if dx*dx+dy*dy <= r2 {
			hits = append(hits, int32(j))
		}
	}
	q.hits = hits
	ncore := int32(len(q.copies))
	i, j := len(rows)-1, len(hits)-1
	rows = append(rows, hits...) // make room; every added entry is overwritten
	for k := len(rows) - 1; j >= 0; k-- {
		if i >= 0 && q.copies[rows[i]].ID >= q.halo.agents[hits[j]].ID {
			rows[k] = rows[i]
			i--
		} else {
			rows[k] = ncore + hits[j]
			j--
		}
	}
	return rows
}

// Nearest implements Env.
func (q *queryEnv) Nearest(k int, buf []*agent.Agent) []*agent.Agent {
	if k <= 0 {
		return buf
	}
	s := q.c.schema
	pos := q.self.Pos(s)
	vis := s.Visibility
	vis2 := vis * vis
	cand := q.buf()
	if q.lists && q.slot >= 0 && vis > 0 && vis <= q.cached.ProbeRadius() {
		// The candidate list covers the visibility disc, and Env.Nearest
		// never returns agents beyond it: every true k-nearest-in-vis is
		// in the list (see the cache invariant), so collecting in-vis
		// candidates and ranking below reproduces the index path exactly.
		list, cur := q.cached.SlotCandidates(q.slot)
		q.visited += int64(len(list))
		for _, j := range list {
			if cur[j].Dist2(pos) <= vis2 && q.copies[j].ID != q.self.ID {
				cand = append(cand, j)
			}
		}
	} else {
		// k+1 core candidates suffice even with a halo: no core agent
		// outside the k+1 nearest (k after self-exclusion) can make the
		// combined top k, however many halo agents outrank it.
		q.nnbuf = q.ix.Nearest(pos, k+1, q.nnbuf[:0])
		for _, p := range q.nnbuf {
			if q.copies[p.ID].ID == q.self.ID || (vis > 0 && p.Pos.Dist2(pos) > vis2) {
				continue
			}
			cand = append(cand, p.ID)
		}
	}
	if len(q.halo.agents) > 0 {
		q.visited += int64(len(q.halo.agents))
		ncore := int32(len(q.copies))
		for j, a := range q.halo.agents {
			// A halo-owned probe finds itself in the halo.
			if a.ID == q.self.ID || (vis > 0 && q.halo.pos[j].Dist2(pos) > vis2) {
				continue
			}
			cand = append(cand, ncore+int32(j))
		}
	}
	// Canonical order: (distance, agent ID).
	sort.Slice(cand, func(i, j int) bool {
		ai, aj := q.agentAt(cand[i]), q.agentAt(cand[j])
		di, dj := ai.Pos(s).Dist2(pos), aj.Pos(s).Dist2(pos)
		if di != dj {
			return di < dj
		}
		return ai.ID < aj.ID
	})
	q.out[q.depth] = cand
	if len(cand) > k {
		cand = cand[:k]
	}
	q.cost += int64(len(cand))
	for _, c := range cand {
		buf = append(buf, q.agentAt(c))
	}
	return buf
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
