package engine

import (
	"math"
	"sort"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/geom"
)

// naive is the test oracle: the engine's semantics spelled out with none
// of its machinery — no spatial index, no partitions, no MapReduce
// runtime. A tick runs every agent's query phase in ascending ID order
// against an O(n²) scan for visibility, folding each assignment straight
// into its target, then every agent's update phase. The partitioned engine
// must reproduce it bit for bit on one partition, and on any number of
// partitions for models with only local effects.
//
// The model reads the oracle through the one query window, Cols, but the
// oracle fills it itself: every state column over the whole ID-sorted
// population, and for each self a candidate block it scans for with its
// own disc test. No cell grid, block build or grouping runs.
type naive struct {
	m      Model
	c      core
	s      *agent.Schema
	seed   uint64
	tick   uint64
	agents agent.Population // ID-sorted
}

func newNaive(m Model, pop []*agent.Agent, seed uint64) *naive {
	c, err := newCore(m, seed)
	if err != nil {
		panic(err)
	}
	n := &naive{
		m: m, c: c, s: m.Schema(), seed: seed,
		agents: append(agent.Population(nil), pop...),
	}
	sort.Sort(n.agents)
	return n
}

// run advances n ticks.
func (n *naive) run(ticks int) {
	var u UpdateCtx
	var q queryEnv
	for ; ticks > 0; ticks-- {
		n.window(&q)
		for row := range n.agents {
			n.seat(&q, int32(row))
			n.m.Query((*Cols)(&q), int32(row))
		}
		var next agent.Population
		for _, a := range n.agents {
			u.reset(n.seed, n.tick, n.s, a.ID)
			old := a.Pos(n.s)
			n.m.Update(a, &u)
			if r := n.s.Reach; r > 0 {
				a.SetPos(n.s, a.Pos(n.s).Clamp(geom.Square(old, r)))
			}
			n.s.ResetEffects(a.Effect)
			if !a.Dead {
				next = append(next, a)
			}
			next = append(next, u.spawns...)
		}
		sort.Sort(next)
		n.agents = next
		n.tick++
	}
}

// window points q at the tick's population: row i is agent i of the
// ID-sorted population, and every state column is filled up front.
func (n *naive) window(q *queryEnv) {
	nf := n.s.NumState()
	cs := &colSet{cols: make([][]float64, nf), have: make([]bool, nf)}
	for f := range cs.cols {
		cs.cols[f] = make([]float64, len(n.agents))
		for i, a := range n.agents {
			cs.cols[f][i] = a.State[f]
		}
		cs.have[f] = true
	}
	*q = queryEnv{
		c: &n.c, copies: n.agents, cols: cs,
		xs: cs.cols[n.s.PosX], ys: cs.cols[n.s.PosY],
	}
}

// seat makes row self the probing agent, with its candidate block the
// rows in the closed disc of the visibility bound around it, ascending
// by ID — every row under unbounded visibility. Every probe's radius is
// cropped to the bound, so the block is never rebuilt: probes at the
// bound return it as is, shorter ones filter it.
func (n *naive) seat(q *queryEnv, self int32) {
	q.self, q.row = n.agents[self], self
	vis := n.s.Visibility
	px, py := q.xs[self], q.ys[self]
	q.blk = q.blk[:0]
	for row := range n.agents {
		dx, dy := q.xs[row]-px, q.ys[row]-py
		if !(vis > 0) || dx*dx+dy*dy <= vis*vis {
			q.blk = append(q.blk, int32(row))
		}
	}
	q.blkR, q.one = vis, vis > 0
	if !(vis > 0) {
		q.blkR = math.Inf(1)
	}
	q.bx, q.by = q.bx[:0], q.by[:0]
}
