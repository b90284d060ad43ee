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
// sets: by candidate-list builds, list scans, tree walks or scans, and the
// halo join. It is the work a cost model charges. A metrics gauge like the wall clock: it depends on the
// index kind and on what the query caches held, so it never feeds back
// into the simulation.
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
	c      *core
	cached *spatial.CachedIndex // the KD-tree and its query cache; nil under KindScan
	scan   *spatial.Scan        // the no-index baseline; nil under the KD-tree
	env    queryEnv             // the part's probe env, rebound per pass
	uctx   UpdateCtx            // reused across agents; reset re-seeds per agent
	// cost is the load balancer's input: the rows this part's probes have
	// returned since Distributed last reset it (see PartitionCost).
	cost int64

	// The tick's build, rewritten by every build call.
	copies []*agent.Agent
	cols   [][]float64 // state columns (columnar models only)
	pts    []spatial.Point
	keys   []int64
	all    []int32 // identity slots, see allSlots
}

// newPart builds a part over the given index kind: the KD-tree always runs
// behind the query cache, with the skin resolveSkin picks.
func (c *core) newPart(index spatial.Kind) *part {
	p := &part{c: c}
	if index == spatial.KindScan {
		p.scan = spatial.NewScan()
	} else {
		p.cached = spatial.NewCached(cacheProbeRadius(c.schema), resolveSkin(c.schema, index))
	}
	return p
}

// resolveSkin is the engine-wide cache policy: every KD-tree copy set runs
// the default skin for a bounded visibility. Unbounded visibility gets 0,
// and with it a cache that builds no lists and never reuses: a plain tree
// rebuilt every tick, probed through the same call. The scan has no cache.
// Every configuration — cost-model runs included — takes this one path, so
// the Visited gauge, and the virtual clock that charges it, count the work
// the engine actually does: list builds and list scans where the cache
// engages, tree walks where it does not.
func resolveSkin(s *agent.Schema, index spatial.Kind) float64 {
	if index != spatial.KindKDTree || s.Visibility <= 0 {
		return 0
	}
	return spatial.DefaultSkin(cacheProbeRadius(s), s.Reach)
}

// cacheProbeRadius is the radius the query cache's candidate lists cover:
// the model's declared probe radius when it is tighter than visibility
// (e.g. predators bite within 2 but see within 5), else visibility.
func cacheProbeRadius(s *agent.Schema) float64 {
	if s.ProbeRadius > 0 && s.ProbeRadius < s.Visibility {
		return s.ProbeRadius
	}
	return s.Visibility
}

// build installs the tick's ID-sorted copy set and (re)builds the index
// over it — through the keyed cache when enabled, so an unchanged copy set
// with sub-skin motion reuses its candidate lists. Keys are agent IDs and
// probe is the set of slots that will query (nil = all): any membership or
// ownership change rebuilds, drift beyond skin/2 rebuilds, everything else
// reuses. The keys also rank the core against the late pass's halo
// (haloJoin.build), so every build fills them. Columnar models gather
// their state columns first so the build reads the position columns
// instead of walking the agents again. Returns the candidates the cached
// index visited constructing lists (0 on reuse, and always 0 for the
// scan), for the Visited gauge.
func (p *part) build(copies []*agent.Agent, probe []int32) int64 {
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
		return 0
	}
	before := p.cached.CacheStats().Visited //bracevet:allow indexstats metrics-only: the build's share of the Visited gauge
	if p.c.colM != nil {
		p.cached.BuildKeyedCols(p.cols[s.PosX], p.cols[s.PosY], p.keys, probe)
	} else {
		p.cached.BuildKeyed(p.points(), p.keys, probe)
	}
	return p.cached.CacheStats().Visited - before //bracevet:allow indexstats metrics-only: Visited gauge
}

// points materializes the copy set's point set from the agents (the
// non-columnar build input); Point.ID is the slot.
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
	q.c, q.cached = c, p.cached
	q.ix = p.index()
	q.copies, q.cols, q.halo = p.copies, p.cols, halo
	q.lists = p.cached != nil && p.cached.HasLists()
	// Without a halo the ID ranks are the slots themselves.
	q.coreRank = p.allSlots(len(p.copies))
	q.rankRow = q.coreRank
	if halo != nil {
		q.coreRank, q.rankRow = halo.coreRank, halo.rankRow
	}
	q.words = resize(q.words, (len(q.rankRow)+63)/64)
	clear(q.words)
	ncore := int32(len(p.copies))
	for _, row := range rows {
		q.self, q.slot = q.agentAt(row), row
		if row >= ncore {
			q.slot = -1 // no core slot: index queries plus the halo join
		}
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

// index is the part's disc probe: the cached KD-tree or the scan.
func (p *part) index() spatial.Index {
	if p.scan != nil {
		return p.scan
	}
	return p.cached
}

// cacheStats returns the part's query-cache counters (zero under the
// scan).
func (p *part) cacheStats() spatial.CacheStats {
	if p.cached == nil {
		return spatial.CacheStats{}
	}
	return p.cached.CacheStats() //bracevet:allow indexstats metrics-only: build/reuse counters for Metrics and the benchmark
}

// resize returns s with length n, reusing capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
