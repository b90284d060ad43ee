package traffic

import (
	"math"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/geom"
)

// Model is the BRACE (state-effect) form of the MITSIM driving model. Its
// agents live in a 2-D space where x is the position along the segment and
// y is the lane index, so the engine's spatial machinery (strip
// partitioning along x, grid range queries with ρ = Lookahead) applies
// directly.
//
// The query phase perceives lead/rear vehicles and per-lane average speeds
// within ρ and stores them in the agent's own effect fields (one
// assignment per field per tick — a degenerate but legal use of the sum
// combinators, mirroring how the BRASIL script computes into local
// variables and assigns once). The update phase runs drive().
type Model struct {
	P Params

	s *agent.Schema
	// state indices
	x, lane, v, desired, changes int
	// effect indices: perception per relative lane (left, cur, right)
	effLeadGap, effLeadV, effRearGap, effAvgV, effCnt [3]int
}

// NewModel builds the schema for the given parameters.
func NewModel(p Params) *Model {
	m := &Model{P: p}
	s := agent.NewSchema("Vehicle")
	m.s = s
	m.x = s.AddState("x", true)
	m.lane = s.AddState("lane", true)
	m.v = s.AddState("v", true)
	m.desired = s.AddState("desired", false)
	m.changes = s.AddState("changes", false)
	rel := [3]string{"L", "C", "R"}
	for i, r := range rel {
		m.effLeadGap[i] = s.AddEffect("leadGap"+r, false, agent.Min)
		m.effLeadV[i] = s.AddEffect("leadV"+r, false, agent.Sum)
		m.effRearGap[i] = s.AddEffect("rearGap"+r, false, agent.Min)
		m.effAvgV[i] = s.AddEffect("avgV"+r, false, agent.Sum)
		m.effCnt[i] = s.AddEffect("cnt"+r, false, agent.Sum)
	}
	s.SetPosition("x", "lane")
	s.SetVisibility(p.Lookahead)
	s.SetReach(p.VMax + 1) // one tick of travel plus a lane hop
	return m
}

// Schema implements engine.Model.
func (m *Model) Schema() *agent.Schema { return m.s }

// Query implements engine.Model: perceive the three candidate lanes over
// the state columns, with one Assign per effect field.
func (m *Model) Query(env *engine.Cols, self int32) {
	xs := env.State(m.x)
	lanes := env.State(m.lane)
	vs := env.State(m.v)
	sx := xs[self]
	lane := int(lanes[self])

	var leadGap, leadV, rearGap, sumV [3]float64
	var cnt [3]float64
	for i := range leadGap {
		leadGap[i] = math.Inf(1)
		rearGap[i] = math.Inf(1)
		leadV[i] = math.Inf(1)
	}

	for _, j := range env.Visible() {
		if j == self {
			continue
		}
		rel := int(lanes[j]) - lane + 1
		if rel < 0 || rel > 2 {
			continue
		}
		dx := xs[j] - sx
		sumV[rel] += vs[j]
		cnt[rel]++
		if dx >= 0 {
			if dx < leadGap[rel] {
				leadGap[rel] = dx
				leadV[rel] = vs[j]
			}
		} else if -dx < rearGap[rel] {
			rearGap[rel] = -dx
		}
	}

	for i := 0; i < 3; i++ {
		env.Assign(self, m.effLeadGap[i], leadGap[i])
		env.Assign(self, m.effLeadV[i], leadV[i])
		env.Assign(self, m.effRearGap[i], rearGap[i])
		env.Assign(self, m.effAvgV[i], sumV[i])
		env.Assign(self, m.effCnt[i], cnt[i])
	}
}

// Update implements engine.Model: decide and move, recycling vehicles that
// leave the downstream end.
func (m *Model) Update(self *agent.Agent, u *engine.UpdateCtx) {
	per := newPerception()
	for i := 0; i < 3; i++ {
		per.leadGap[i] = self.Effect[m.effLeadGap[i]]
		per.leadV[i] = self.Effect[m.effLeadV[i]]
		per.rearGap[i] = self.Effect[m.effRearGap[i]]
		if c := self.Effect[m.effCnt[i]]; c > 0 {
			per.avgV[i] = self.Effect[m.effAvgV[i]] / c
		}
	}
	lane := int(self.State[m.lane])
	d := drive(m.P, lane, self.State[m.v], self.State[m.desired], per, u.RNG)
	if d.changed {
		self.State[m.changes]++
	}
	self.State[m.lane] = float64(d.newLane)
	self.State[m.v] = d.newV
	self.State[m.x] += d.dx

	if self.State[m.x] > m.P.Length {
		// Constant upstream traffic: this vehicle exits; a fresh one
		// enters at the upstream end in the same lane.
		u.Kill(self)
		c := u.Spawn()
		c.State[m.x] = self.State[m.x] - m.P.Length // carry the overshoot
		c.State[m.lane] = float64(d.newLane)
		c.State[m.v] = d.newV
		c.State[m.desired] = u.RNG.Range(m.P.DesiredMean-m.P.DesiredSpread, m.P.DesiredMean+m.P.DesiredSpread)
	}
}

// NewPopulation lays out the initial vehicles: per-lane uniform spacing
// with jitter, desired speeds drawn per driver.
func (m *Model) NewPopulation(seed uint64) []*agent.Agent {
	p := m.P
	n := p.Vehicles()
	pop := make([]*agent.Agent, 0, n)
	perLane := n / p.Lanes
	id := agent.ID(1)
	for lane := 0; lane < p.Lanes; lane++ {
		for i := 0; i < perLane; i++ {
			rng := agent.NewRNG(seed, 0, id)
			a := agent.New(m.s, id)
			spacing := p.Length / float64(perLane)
			a.State[m.x] = (float64(i) + 0.5*rng.Float64()) * spacing
			a.State[m.lane] = float64(lane)
			a.State[m.v] = rng.Range(p.DesiredMean-p.DesiredSpread, p.DesiredMean)
			a.State[m.desired] = rng.Range(p.DesiredMean-p.DesiredSpread, p.DesiredMean+p.DesiredSpread)
			pop = append(pop, a)
			id++
		}
	}
	return pop
}

// Pos returns a vehicle's (x, lane) position; exported for harness code.
func (m *Model) Pos(a *agent.Agent) geom.Vec { return a.Pos(m.s) }

// Lane returns a vehicle's lane index.
func (m *Model) Lane(a *agent.Agent) int { return int(a.State[m.lane]) }

// Speed returns a vehicle's current speed.
func (m *Model) Speed(a *agent.Agent) float64 { return a.State[m.v] }

// Changes returns a vehicle's cumulative lane-change count.
func (m *Model) Changes(a *agent.Agent) float64 { return a.State[m.changes] }

var _ engine.Model = (*Model)(nil)
