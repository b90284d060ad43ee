// The one query pass. Every partition runs a tick as build → query →
// update over an ID-sorted copy set. core is what a run shares across its
// copy sets, part is one copy set's machine, and its three methods are the
// only place the tick's compute term is spelled out.
package engine

import (
	"slices"
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
// read (the cells its box touches, or every copy under the scan), plus
// for every probe the block members its filter read. It is the work a
// cost model charges, and a function of the state, the partitioning and
// the index kind alone. Still a metrics gauge like the wall clock: no
// decision reads it (the balancer's input is the rows returned,
// PartitionCost).
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
	cols   colSet // state columns by row

	// Query scratch: the pass's selves by slot, and one group.
	sel []uint64
	grp []int32

	// theta is the read-only identity θ a local model's replicas share as
	// their Effect (replicaArena.replica), one vector for every part of
	// the engine: the θ this part's update resets an owned Effect to. Nil
	// under non-local effects and at one partition, which has no replicas.
	theta []float64
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
// it. The state columns start first (colSet.build gathers the position
// columns, the others wait for their first read), and the grid reads the
// position columns.
func (p *part) build(copies []*agent.Agent) {
	s := p.c.schema
	p.copies = copies
	p.cols.build(s, copies)
	p.grid.build(p.cols.cols[s.PosX], p.cols.cols[s.PosY], s.Visibility)
	p.builds++
}

// query runs the query phase for the given slots of the last build, adds
// the rows its probes returned to the part's cost, and returns the
// candidates the block builds and filters examined (the Visited gauge).
//
// The selves run in groups that share a candidate block (queryEnv.group).
// A local-effect model's selves are grouped by tiles of grid cells sized
// to the grid's occupancy (groups): each self writes only its own
// effects, so its query phase may run in any order.
// A non-local model's selves run one per group in the order given, which
// is ascending ID: their Assigns fold into other agents' effects, and
// that fold order is part of the result.
func (p *part) query(slots []int32) int64 {
	q := p.bind()
	if p.c.nonLocal {
		q.alone(slots)
	} else {
		p.groups(slots)
	}
	visited := q.visited
	p.cost += q.cost
	q.visited, q.cost = 0, 0
	return visited
}

// bind points the part's env at the last build.
func (p *part) bind() *queryEnv {
	q := &p.env
	q.c, q.grid = p.c, &p.grid
	q.copies, q.cols = p.copies, &p.cols
	s := p.c.schema
	q.xs, q.ys = p.cols.cols[s.PosX], p.cols.cols[s.PosY]
	q.words = resize(q.words, (len(p.copies)+63)/64)
	q.summary = resize(q.summary, (len(q.words)+63)/64)
	clear(q.words)
	clear(q.summary)
	return q
}

// groups runs a local-effect pass one tile at a time. A tile is a square
// of t×t grid cells (tileEdge), clipped at the grid's right and top
// edges; the tiles run row-major from the grid's first cell, and within a
// tile the cells run row-major and a cell's selves by ascending slot. At
// t = 1 a tile is one cell and the walk is the grid's own order.
func (p *part) groups(slots []int32) {
	n := len(p.copies)
	p.sel = resize(p.sel, (n+63)/64)
	clear(p.sel)
	for _, slot := range slots {
		p.sel[slot>>6] |= 1 << (slot & 63)
	}
	g, grp := &p.grid, p.grp[:0]
	t := g.tileEdge()
	for ty := 0; ty < g.ny; ty += t {
		for tx := 0; tx < g.nx; tx += t {
			grp = grp[:0]
			// The cells of one tile row are adjacent in the bin layout.
			for cy := ty; cy < min(ty+t, g.ny); cy++ {
				c := cy * g.nx
				for _, slot := range g.id[g.start[c+tx]:g.start[c+min(tx+t, g.nx)]] {
					if p.sel[slot>>6]&(1<<(slot&63)) != 0 {
						grp = append(grp, slot)
					}
				}
			}
			p.flush(grp)
		}
	}
	p.grp = grp
}

// tileMass is the cell population a group's tile should hold, counted the
// way a copy sees it: tileEdge picks the smallest t with ω·t² ≥ tileMass.
// The cell edge is half the visibility bound for every model, so what a
// shared block saves depends only on how many selves share it. Swept on
// the wall time of the scripted avoidance benchmark, ω ≈ 1.5–2.1 (4 runs of
// 3 s each, shared 2-vCPU host, median agent-ticks/s): 0.77M with every
// cell its own tile, 0.87M at 4 (t = 2), 0.90M at 10 (t = 3), 1.01M at 20
// (t = 4). The fish school must keep t = 1: its ω is 17–20 at one
// partition and 16–20 at eight, replicas counted (2000 fish, seed 7, 40
// ticks), and a partition that took t = 2 would read more candidates per
// agent than one partition does (TestPartitionedCandidateWorkGuard). 10
// keeps a margin below that.
const tileMass = 10

// tileEdge returns the pass's tile edge t in cells, chosen from the grid's
// occupancy ω = Σk²/Σk over its cells' populations k: the population of
// the cell a typical copy is in. A crowded grid keeps one cell to a tile;
// a sparse one widens its tiles until a tile holds about tileMass copies.
func (g *cellGrid) tileEdge() int {
	var sq int64 // Σk²; Σk is every member
	for c := 0; c < g.nx*g.ny; c++ {
		k := int64(g.start[c+1] - g.start[c])
		sq += k * k
	}
	t := 1
	for int64(t*t)*sq < tileMass*int64(len(g.id)) {
		t++
	}
	return t
}

// minGroup is the fewest selves of one tile that share a block; fewer
// probe alone. A block is wider than any one probe's disc (it covers the
// disc of every point of the group's box), so sharing pays only once the
// reads it saves outweigh the wider filters. Swept on wall time with
// tileMass at 10 (3 runs of 3 s each, shared 2-vCPU host, median
// agent-ticks/s): the scripted avoidance benchmark read 0.87M, 0.93M and
// 0.86M at 2, 4 and 8, the fish school 0.33M, 0.34M and 0.32M, no
// difference beyond the host's noise.
const minGroup = 4

// flush runs one tile's selves: as one group when there are enough of
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

// resize returns s with length n, reusing capacity and growing it as
// append does, so a buffer that creeps up tick after tick reallocates a
// logarithmic number of times. The elements are left as they were.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}
