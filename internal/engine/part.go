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
	// colM is non-nil when query phases run QueryCols: the model implements
	// ColumnarModel and has only local effects (see columnarModel).
	colM ColumnarModel
	seed uint64

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
		colM:     columnarModel(m),
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

// Visited returns the index candidates examined across all ticks and copy
// sets: the members of the grid cells each probe touched, core and halo,
// or every copy under the scan. It is the work a cost model charges, and
// a function of the state, the partitioning and the index kind alone.
// Still a metrics gauge like the wall clock: no decision reads it (the
// balancer's input is the rows returned, PartitionCost).
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
	grid *cellGrid     // the copies' cell grid; nil under KindScan
	scan *spatial.Scan // the no-index baseline; nil under the grid
	env  queryEnv      // the part's probe env, rebound per pass
	uctx UpdateCtx     // reused across agents; reset re-seeds per agent
	// cost is the load balancer's input: the rows this part's probes have
	// returned since Distributed last reset it (see PartitionCost).
	cost int64
	// builds counts the grid builds, one per tick (Metrics.CacheBuilds).
	builds int64

	// The tick's build, rewritten by every build call.
	copies []*agent.Agent
	cols   [][]float64 // state columns (columnar models only)
	px, py []float64   // positions by slot (non-columnar models only)
	pts    []spatial.Point
	keys   []int64
	all    []int32 // identity slots, see allSlots
}

// newPart builds a part over the given index kind: KindKDTree, the zero
// value, probes a cell grid (the name stays: it is the vocabulary of the
// flag, the run spec and the handshake), KindScan the scan.
func (c *core) newPart(index spatial.Kind) *part {
	p := &part{c: c}
	if index == spatial.KindScan {
		p.scan = spatial.NewScan()
	} else {
		p.grid = &cellGrid{}
	}
	return p
}

// build installs the tick's ID-sorted copy set and builds the index over
// it. The keys rank the core against the late pass's halo
// (haloJoin.build), so every build fills them. Columnar models gather their
// state columns first so the grid reads the position columns instead of
// walking the agents again.
func (p *part) build(copies []*agent.Agent) {
	s := p.c.schema
	p.copies = copies
	if p.c.colM != nil {
		p.cols = gatherCols(p.cols, s, copies)
	}
	p.keys = resize(p.keys, len(copies))
	for i, a := range copies {
		p.keys[i] = int64(a.ID)
	}
	if p.scan != nil {
		p.scan.Build(p.points())
		return
	}
	xs, ys := p.positions()
	p.grid.build(xs, ys, nil, s.Visibility)
	p.builds++
}

// positions returns the copies' position columns: the state columns of a
// columnar model, else gathered from the agents.
func (p *part) positions() (xs, ys []float64) {
	s := p.c.schema
	if p.c.colM != nil {
		return p.cols[s.PosX], p.cols[s.PosY]
	}
	p.px, p.py = resize(p.px, len(p.copies)), resize(p.py, len(p.copies))
	for i, a := range p.copies {
		pos := a.Pos(s)
		p.px[i], p.py[i] = pos.X, pos.Y
	}
	return p.px, p.py
}

// points materializes the copy set's point set from the agents (the scan's
// build input); Point.ID is the slot.
func (p *part) points() []spatial.Point {
	p.pts = resize(p.pts, len(p.copies))
	for i, a := range p.copies {
		p.pts[i] = spatial.Point{Pos: a.Pos(p.c.schema), ID: int32(i)}
	}
	return p.pts
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
// candidates the index examined (the Visited gauge). A row below
// len(copies) is a core slot; the late (boundary) pass also passes halo
// rows (len(copies)+j: an owned agent that arrived from a peer) along with
// the halo join, whose copies probes then find beside the core's.
func (p *part) query(rows []int32, halo *haloJoin) int64 {
	c := p.c
	q := &p.env
	q.c = c
	q.ix = p.index()
	q.copies, q.cols, q.halo = p.copies, p.cols, halo
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
	for _, row := range rows {
		q.self = q.agentAt(row)
		if c.colM != nil {
			c.colM.QueryCols((*Cols)(q), row)
		} else {
			c.model.Query(q.self, q)
		}
	}
	visited := q.visited
	p.cost += q.cost
	q.visited, q.cost = 0, 0
	return visited
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

// index is the part's disc probe: the cell grid or the scan.
func (p *part) index() spatial.Index {
	if p.scan != nil {
		return p.scan
	}
	return p.grid
}

// resize returns s with length n, reusing capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
