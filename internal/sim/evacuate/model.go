// Package evacuate implements a crowd-evacuation workload in the paper's
// state-effect pattern: pedestrians in a rectangular room head for the
// nearest exit while a social-force-style repulsion keeps them apart
// (Helbing-Molnár in miniature). The query phase accumulates the repulsive
// force from visible neighbors into the agent's own effect fields — local
// assignments folded by sum combinators, so the query is exactly
// order-independent and the model runs bit-identically at any partition
// count.
// The update phase blends exit attraction with the aggregated repulsion,
// crops the step to the agent's reach, and removes agents that arrive at
// an exit (the population monotonically drains, exercising the engines'
// deterministic kill path).
//
// The spatial pattern is the inverse of the fish school's: the crowd
// *converges* onto a handful of exit cells, so density — and with it
// query cost — concentrates over time. That makes evacuation a natural
// complement to the fish split for load-balancer experiments.
package evacuate

import (
	"math"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/geom"
)

// Params holds the model constants. Units: meters, seconds (one tick ≈
// one second of pedestrian motion).
type Params struct {
	// Width and Height are the room dimensions; agents are clamped inside.
	Width, Height float64
	// Exits are the exit locations (on or near the walls).
	Exits []geom.Vec
	// ExitRadius is the capture distance: an agent within it has left.
	ExitRadius float64
	// RepelRadius bounds the social repulsion (the visibility bound ρ).
	RepelRadius float64
	// RepelGain scales the aggregated repulsion against the unit-length
	// exit attraction.
	RepelGain float64
	// Speed is the desired (and maximum) per-tick step length.
	Speed float64
	// TurnNoise perturbs the step direction each tick (radians, uniform ±).
	TurnNoise float64
}

// DefaultParams returns a two-exit room calibration.
func DefaultParams() Params {
	return Params{
		Width:       60,
		Height:      40,
		Exits:       []geom.Vec{geom.V(0, 20), geom.V(60, 20)},
		ExitRadius:  1.5,
		RepelRadius: 3,
		RepelGain:   1.2,
		Speed:       1.0,
		TurnNoise:   0.05,
	}
}

// Model is the BRACE form of the evacuation. All effect assignments are
// local, so the engine uses the single-reduce dataflow.
type Model struct {
	P Params

	s *agent.Schema
	// state: position
	x, y int
	// effects: aggregated social repulsion and neighbor count
	repx, repy, crowd int
}

// NewModel builds the schema.
func NewModel(p Params) *Model {
	m := &Model{P: p}
	s := agent.NewSchema("Pedestrian")
	m.s = s
	m.x = s.AddState("x", true)
	m.y = s.AddState("y", true)
	m.repx = s.AddEffect("repelx", false, agent.Sum)
	m.repy = s.AddEffect("repely", false, agent.Sum)
	m.crowd = s.AddEffect("crowd", false, agent.Sum)
	s.SetPosition("x", "y")
	s.SetVisibility(p.RepelRadius)
	s.SetReach(p.Speed + 1e-9)
	return m
}

// Schema implements engine.Model.
func (m *Model) Schema() *agent.Schema { return m.s }

// Query implements engine.Model: accumulate the social force — each
// visible neighbor pushes the agent away with strength falling linearly
// to zero at the repulsion radius. The local accumulators fold the
// additions in neighbor order starting from zero, as per-neighbor Assigns
// would fold them into the θ = 0 effects.
func (m *Model) Query(env *engine.Cols, self int32) {
	xs, ys := env.State(m.x), env.State(m.y)
	sx, sy := xs[self], ys[self]
	r := m.P.RepelRadius
	var repx, repy, crowd float64
	for _, j := range env.Visible() {
		if j == self {
			continue
		}
		dx, dy := sx-xs[j], sy-ys[j]
		d := math.Sqrt(dx*dx + dy*dy)
		if d == 0 || d > r {
			continue
		}
		w := (1 - d/r) / d
		repx += dx * w
		repy += dy * w
		crowd++
	}
	env.Assign(self, m.repx, repx)
	env.Assign(self, m.repy, repy)
	env.Assign(self, m.crowd, crowd)
}

// nearestExit returns the exit closest to pos (ties broken by declaration
// order, which is deterministic).
func (m *Model) nearestExit(pos geom.Vec) geom.Vec {
	best := m.P.Exits[0]
	bestD := pos.Dist2(best)
	for _, e := range m.P.Exits[1:] {
		if d := pos.Dist2(e); d < bestD {
			best, bestD = e, d
		}
	}
	return best
}

// Update implements engine.Model: step toward the nearest exit, deflected
// by the aggregated repulsion; leave the simulation on arrival.
func (m *Model) Update(self *agent.Agent, u *engine.UpdateCtx) {
	pos := geom.V(self.State[m.x], self.State[m.y])
	exit := m.nearestExit(pos)
	if pos.Dist(exit) <= m.P.ExitRadius {
		u.Kill(self)
		return
	}
	dir := exit.Sub(pos).Norm()
	dir = dir.Add(geom.V(self.Effect[m.repx], self.Effect[m.repy]).Scale(m.P.RepelGain))
	// Norm maps an exactly-canceled force to the zero vector, so the agent
	// holds position that tick; the noise draw below still advances the
	// RNG stream either way.
	dir = dir.Norm()
	dir = dir.Rotate(u.RNG.Range(-m.P.TurnNoise, m.P.TurnNoise))
	next := pos.Add(dir.Scale(m.P.Speed))
	// Walls: stay inside the room.
	next = next.Clamp(geom.R(0, 0, m.P.Width, m.P.Height))
	self.State[m.x] = next.X
	self.State[m.y] = next.Y
}

// NewPopulation places n pedestrians uniformly in the room interior,
// excluding the exit capture discs so nobody evacuates at tick zero.
// Rejection sampling is bounded: in a degenerate geometry where the exit
// discs cover (almost) the whole floor, the last sampled point is
// accepted rather than looping forever — those agents just evacuate
// immediately.
func (m *Model) NewPopulation(n int, seed uint64) []*agent.Agent {
	pop := make([]*agent.Agent, n)
	margin := m.P.ExitRadius
	for i := 0; i < n; i++ {
		id := agent.ID(i + 1)
		rng := agent.NewRNG(seed, 0, id)
		a := agent.New(m.s, id)
		for try := 0; ; try++ {
			p := geom.V(
				rng.Range(margin, m.P.Width-margin),
				rng.Range(margin, m.P.Height-margin),
			)
			clear := true
			for _, e := range m.P.Exits {
				if p.Dist(e) <= m.P.ExitRadius+margin {
					clear = false
					break
				}
			}
			if clear || try >= 64 {
				a.State[m.x] = p.X
				a.State[m.y] = p.Y
				break
			}
		}
		pop[i] = a
	}
	return pop
}

// Pos returns a pedestrian's position.
func (m *Model) Pos(a *agent.Agent) geom.Vec { return a.Pos(m.s) }

var _ engine.Model = (*Model)(nil)
