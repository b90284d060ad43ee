package engine

import (
	"fmt"
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
type naive struct {
	m        Model
	s        *agent.Schema
	combs    []agent.Combinator
	nonLocal bool
	seed     uint64
	tick     uint64
	agents   agent.Population // ID-sorted
}

func newNaive(m Model, pop []*agent.Agent, seed uint64) *naive {
	n := &naive{
		m: m, s: m.Schema(), combs: effectCombs(m.Schema()),
		nonLocal: modelNonLocal(m), seed: seed,
		agents: append(agent.Population(nil), pop...),
	}
	sort.Sort(n.agents)
	return n
}

// run advances n ticks.
func (n *naive) run(ticks int) {
	var u UpdateCtx
	for ; ticks > 0; ticks-- {
		for _, a := range n.agents {
			n.m.Query(a, &naiveEnv{n: n, self: a})
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

// naiveEnv is one agent's query phase in the oracle.
type naiveEnv struct {
	n    *naive
	self *agent.Agent
}

func (q *naiveEnv) Self() *agent.Agent { return q.self }

// ForEachVisible visits every agent within the visibility bound, or every
// agent when visibility is unbounded.
func (q *naiveEnv) ForEachVisible(fn func(*agent.Agent)) {
	if vis := q.n.s.Visibility; vis > 0 {
		q.within(vis, fn)
		return
	}
	for _, a := range q.n.agents {
		fn(a)
	}
}

func (q *naiveEnv) Nearby(radius float64, fn func(*agent.Agent)) {
	if vis := q.n.s.Visibility; vis > 0 && radius > vis {
		radius = vis
	}
	q.within(radius, fn)
}

// within visits, in ascending ID order, the agents in the closed disc of
// the given radius around self.
func (q *naiveEnv) within(radius float64, fn func(*agent.Agent)) {
	pos := q.self.Pos(q.n.s)
	for _, a := range q.n.agents {
		p := a.Pos(q.n.s)
		dx, dy := p.X-pos.X, p.Y-pos.Y
		if dx*dx+dy*dy <= radius*radius {
			fn(a)
		}
	}
}

func (q *naiveEnv) Assign(target *agent.Agent, i int, v float64) {
	if !q.n.nonLocal && target.ID != q.self.ID {
		panic(fmt.Sprintf("naive: non-local assignment %d -> %d in a local-effects model", q.self.ID, target.ID))
	}
	target.Effect[i] = q.n.combs[i].Combine(target.Effect[i], v)
}
