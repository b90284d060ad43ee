// The one query pass. Every partition runs a tick as build → query →
// update over an ID-sorted copy set. core is what a run shares across its
// copy sets, part is one copy set's machine, and its three methods are the
// only place the tick's compute term is spelled out.
package engine

import (
	"time"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/spatial"
)

// core is the per-run state: the model and what is derived from it once,
// the seed, and the throughput gauges.
type core struct {
	model    Model
	schema   *agent.Schema
	combs    []agent.Combinator
	isSum    []bool // devirtualized fast path for the ubiquitous sum fold
	nonLocal bool
	seed     uint64

	agentTicks int64
	visited    int64
	wall       time.Duration
}

func newCore(m Model, seed uint64) (core, error) {
	if err := validateModel(m); err != nil {
		return core{}, err
	}
	combs := effectCombs(m.Schema())
	return core{
		model:    m,
		schema:   m.Schema(),
		combs:    combs,
		isSum:    sumMask(combs),
		nonLocal: modelNonLocal(m),
		seed:     seed,
	}, nil
}

// timed runs fn and adds its wall time to the throughput gauge.
func (c *core) timed(fn func() error) error {
	start := time.Now() //bracevet:allow wallclock metrics-only: feeds the wall throughput gauge, never simulation state
	err := fn()
	c.wall += time.Since(start) //bracevet:allow wallclock metrics-only: wall throughput gauge
	return err
}

// AgentTicks returns the total agent query phases processed.
func (c *core) AgentTicks() int64 { return c.agentTicks }

// Visited returns the candidates examined across all ticks and copy sets:
// for every group of probing agents, the grid members its block build
// read (the core and halo cells its box touches, or every copy under the
// scan), plus for every probe the block members its filter read. It is
// the work a cost model charges, and a function of the state, the
// partitioning and the index kind alone. Still a metrics gauge like the
// wall clock: no decision reads it (the balancer's input is the rows
// returned, PartitionCost).
func (c *core) Visited() int64 { return c.visited }

// WallSeconds returns wall time spent in RunTicks.
func (c *core) WallSeconds() float64 { return c.wall.Seconds() }

// ThroughputWall returns agent-ticks per wall second.
func (c *core) ThroughputWall() float64 {
	w := c.WallSeconds()
	if w <= 0 {
		return 0
	}
	return float64(c.agentTicks) / w
}

// part is the query machine over one ID-sorted copy set: one partition's
// owned agents plus replicas. A part is the unit of parallelism: its build, query and
// update run on the goroutine that owns it, and multi-core comes from
// running several parts (Options.Workers) at once.
type part struct {
	c    *core
	grid cellGrid  // the copies' cell grid; one cell under KindScan
	env  queryEnv  // the part's probe env, rebound per pass
	uctx UpdateCtx // reused across agents; reset re-seeds per agent
	// cost is the load balancer's input: the rows this part's probes have
	// returned since Distributed last reset it (see PartitionCost).
	cost int64
	// builds counts the grid builds, one per tick (Metrics.CacheBuilds).
	builds int64

	// The tick's build, rewritten by every build call.
	copies []*agent.Agent
	cols   colSet // state columns by row, core then halo
	keys   []int64
	all    []int32 // identity slots, see allSlots

	// Query scratch: the pass's selves by core slot, and one group.
	sel []uint64
	grp []int32
}

// newPart builds a part over the given index kind: KindKDTree, the zero
// value, probes a cell grid (the name stays: it is the vocabulary of the
// flag, the run spec and the handshake), KindScan a grid of one cell.
func (c *core) newPart(index spatial.Kind) *part {
	p := &part{c: c}
	p.grid.scan = index == spatial.KindScan
	return p
}

// build installs the tick's ID-sorted copy set and builds the grid over
// it. The keys rank the core against the late pass's halo
// (haloJoin.build), so every build fills them. The state columns start
// first (colSet.build gathers the position columns, the others wait for
// their first read), and the grid reads the position columns.
func (p *part) build(copies []*agent.Agent) {
	s := p.c.schema
	p.copies = copies
	p.cols.build(s, copies)
	p.keys = resize(p.keys, len(copies))
	for i, a := range copies {
		p.keys[i] = int64(a.ID)
	}
	p.grid.build(p.cols.cols[s.PosX], p.cols.cols[s.PosY], nil, s.Visibility)
	p.builds++
}

// join makes h, whose ID-sorted agents are the peer-sent copies of the
// late pass, the pass's halo: the state columns gain its rows
// (len(copies)+j), and its grid and ID ranks are built from them.
func (p *part) join(h *haloJoin) {
	s, n := p.c.schema, len(p.copies)
	p.cols.appendHalo(h.agents)
	h.build(p.keys, p.cols.cols[s.PosX][n:], p.cols.cols[s.PosY][n:], s.Visibility, p.grid.scan)
}

// allSlots returns the identity rows [0, n), the slot ranks of a pass with
// no halo.
func (p *part) allSlots(n int) []int32 {
	for i := len(p.all); i < n; i++ {
		p.all = append(p.all, int32(i))
	}
	return p.all[:n]
}

// query runs the query phase for the given rows of the last build, adds
// the rows its probes returned to the part's cost, and returns the
// candidates the block builds and filters examined (the Visited gauge). A
// row below len(copies) is a core slot; the late (boundary) pass also
// passes halo rows (len(copies)+j: an owned agent that arrived from a
// peer) along with the halo join, whose copies the blocks then hold
// beside the core's.
//
// The selves run in groups that share a candidate block (queryEnv.group).
// A local-effect model's selves are grouped by core-grid cell, walked in
// the grid's cell order, and a halo row is a group of its own: each self
// writes only its own effects, so its query phase may run in any order.
// A non-local model's selves run one per group in the order given, which
// is ascending ID: their Assigns fold into other agents' effects, and
// that fold order is part of the result.
func (p *part) query(rows []int32, halo *haloJoin) int64 {
	q := p.bind(halo)
	if p.c.nonLocal {
		q.alone(rows)
	} else {
		p.groups(rows)
	}
	visited := q.visited
	p.cost += q.cost
	q.visited, q.cost = 0, 0
	return visited
}

// bind points the part's env at the last build and the pass's halo.
func (p *part) bind(halo *haloJoin) *queryEnv {
	q := &p.env
	q.c, q.grid = p.c, &p.grid
	q.copies, q.cols, q.halo = p.copies, &p.cols, halo
	// The position columns carry the halo's rows once join ran.
	s := p.c.schema
	q.xs, q.ys = p.cols.cols[s.PosX], p.cols.cols[s.PosY]
	// Without a halo the ID ranks are the slots themselves.
	q.coreRank = p.allSlots(len(p.copies))
	q.rankRow = q.coreRank
	if halo != nil {
		q.coreRank, q.rankRow = halo.coreRank, halo.rankRow
	}
	q.words = resize(q.words, (len(q.rankRow)+63)/64)
	q.summary = resize(q.summary, (len(q.words)+63)/64)
	clear(q.words)
	clear(q.summary)
	return q
}

// groups runs a local-effect pass: each halo row alone, then the core
// rows one core-grid cell at a time, in the grid's cell order (within a
// cell, ascending slot).
func (p *part) groups(rows []int32) {
	q := &p.env
	n := int32(len(p.copies))
	p.sel = resize(p.sel, (int(n)+63)/64)
	clear(p.sel)
	for i, row := range rows {
		if row >= n {
			q.group(rows[i : i+1])
			continue
		}
		p.sel[row>>6] |= 1 << (row & 63)
	}
	g, grp, cell := &p.grid, p.grp[:0], int32(-1)
	for _, slot := range g.id {
		if p.sel[slot>>6]&(1<<(slot&63)) == 0 {
			continue
		}
		if c := g.cell[slot]; c != cell {
			p.flush(grp)
			grp, cell = grp[:0], c
		}
		grp = append(grp, slot)
	}
	p.flush(grp)
	p.grp = grp
}

// minGroup is the fewest selves of one cell that share a block; fewer
// probe alone. A block is wider than any one probe's disc (it covers the
// disc of every point of the group's box), so sharing pays only once it
// saves more cell reads than the wider filters cost. Measured on Visited
// per agent-tick: the scripted avoidance benchmark, ≈1.1 selves to a
// cell, reads 22.5 when every cell shares and 21.3 from 3 up, the same
// as one probe per agent; the fish school, 16 to a cell, reads least at 4
// to 6.
const minGroup = 4

// flush runs one cell's selves: as one group when there are enough of
// them, else one at a time.
func (p *part) flush(selves []int32) {
	if len(selves) >= minGroup {
		p.env.group(selves)
	} else {
		p.env.alone(selves)
	}
}

// update runs the update phase for one agent of this part: the model's
// Update under per-(seed, tick, agent) randomness, the reachability crop
// (§4.1: at most Reach along each axis per tick), and the effect reset to
// θ. It returns the agents spawned, valid until the next update call.
func (p *part) update(a *agent.Agent, tick uint64) []*agent.Agent {
	s := p.c.schema
	p.uctx.reset(p.c.seed, tick, s, a.ID)
	oldPos := a.Pos(s)
	p.c.model.Update(a, &p.uctx)
	if r := s.Reach; r > 0 {
		a.SetPos(s, a.Pos(s).Clamp(geom.Square(oldPos, r)))
	}
	s.ResetEffects(a.Effect)
	return p.uctx.spawns
}

// resize returns s with length n, reusing capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
