// Package epidemic implements a spatial SIR (susceptible-infected-
// recovered) epidemic in the paper's state-effect pattern. Infection
// pressure travels through the visible region as a *local* effect field:
// each susceptible agent sums a distance-weighted exposure from the
// infected agents it can see, then converts the aggregate into an
// infection probability during its update phase. Because every effect
// assignment targets self and the accumulator is a sum, the query phase
// is order-independent and the model runs bit-identically at any
// partition count with the single-reduce dataflow.
//
// The model is the classic agent-based SIR on a moving population:
// agents random-walk inside a soft world disc, susceptibles catch the
// infection with probability 1−exp(−β·exposure), infected agents recover
// after a fixed number of ticks. Seeding the infection in a spatial
// cluster at the center produces the traveling infection wave that makes
// the workload spatially skewed — a natural load-balancer stressor.
package epidemic

import (
	"math"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/geom"
)

// Disease progression states stored in the status state field.
const (
	Susceptible = 0
	Infected    = 1
	Recovered   = 2
)

// Params holds the model constants.
type Params struct {
	// Beta scales aggregate exposure into infection probability:
	// p = 1 − exp(−Beta · exposure).
	Beta float64
	// InfectRadius bounds who can expose whom (≤ Visibility).
	InfectRadius float64
	// Visibility is the schema visibility bound ρ.
	Visibility float64
	// RecoverTicks is how long an agent stays infected.
	RecoverTicks float64
	// Speed is the per-tick random-walk step.
	Speed float64
	// WorldRadius softly confines the population (drift back toward the
	// origin beyond it), keeping density stationary.
	WorldRadius float64
	// SeedInfected is the number of initially infected agents, placed in
	// a cluster at the world center.
	SeedInfected int
	// SeedRadius is the placement radius of the initial infection cluster.
	SeedRadius float64
}

// DefaultParams returns a calibration producing a clear S→I→R wave in a
// few hundred ticks at a few thousand agents.
func DefaultParams() Params {
	return Params{
		Beta:         0.9,
		InfectRadius: 2.5,
		Visibility:   2.5,
		RecoverTicks: 20,
		Speed:        0.6,
		WorldRadius:  45,
		SeedInfected: 8,
		SeedRadius:   3,
	}
}

// Model is the BRACE form of the SIR epidemic. All effect assignments are
// local, so the engine uses the single-reduce dataflow and runs agree
// exactly at any partition count.
type Model struct {
	P Params

	s *agent.Schema
	// state: position, disease status, ticks spent infected
	x, y, status, sick int
	// effect: distance-weighted infection pressure from visible infected
	exposure int
}

// NewModel builds the schema.
func NewModel(p Params) *Model {
	m := &Model{P: p}
	s := agent.NewSchema("Person")
	m.s = s
	m.x = s.AddState("x", true)
	m.y = s.AddState("y", true)
	m.status = s.AddState("status", true)
	m.sick = s.AddState("sick", false)
	m.exposure = s.AddEffect("exposure", false, agent.Sum)
	s.SetPosition("x", "y")
	s.SetVisibility(p.Visibility)
	// The confinement pull adds up to 0.2·Speed to the random-walk step,
	// so reach must cover the combined displacement or the engine's crop
	// would truncate only the inward drift.
	s.SetReach(1.2*p.Speed + 1e-9)
	return m
}

// Schema implements engine.Model.
func (m *Model) Schema() *agent.Schema { return m.s }

// Query implements engine.Model: a susceptible agent collects exposure
// from every infected agent within the infection radius, weighted by a
// linear distance kernel (closer contacts transmit more). The local
// exposure accumulator folds the terms in neighbor order starting from
// zero, as per-neighbor Assigns would fold them into the θ = 0 effect.
func (m *Model) Query(env *engine.Cols, self int32) {
	status := env.State(m.status)
	if status[self] != Susceptible {
		return
	}
	r := m.P.InfectRadius
	xs, ys := env.State(m.x), env.State(m.y)
	sx, sy := xs[self], ys[self]
	var exposure float64
	for _, j := range env.Nearby(r) {
		if j == self || status[j] != Infected {
			continue
		}
		dx, dy := xs[j]-sx, ys[j]-sy
		d := math.Sqrt(dx*dx + dy*dy)
		if d > r {
			continue
		}
		exposure += 1 - d/r
	}
	env.Assign(self, m.exposure, exposure)
}

// Update implements engine.Model: progress the disease, then random-walk.
func (m *Model) Update(self *agent.Agent, u *engine.UpdateCtx) {
	switch self.State[m.status] {
	case Susceptible:
		if e := self.Effect[m.exposure]; e > 0 {
			p := 1 - math.Exp(-m.P.Beta*e)
			if u.RNG.Float64() < p {
				self.State[m.status] = Infected
				self.State[m.sick] = 0
			}
		}
	case Infected:
		self.State[m.sick]++
		if self.State[m.sick] >= m.P.RecoverTicks {
			self.State[m.status] = Recovered
		}
	}

	// Random walk with a soft pull toward the origin beyond WorldRadius.
	th := u.RNG.Range(0, 2*math.Pi)
	step := geom.V(math.Cos(th), math.Sin(th)).Scale(m.P.Speed)
	pos := geom.V(self.State[m.x], self.State[m.y])
	if r := pos.Len(); r > m.P.WorldRadius {
		step = step.Add(pos.Scale(-0.2 * m.P.Speed / r))
	}
	self.State[m.x] += step.X
	self.State[m.y] += step.Y
}

// NewPopulation scatters n agents uniformly in the world disc and infects
// SeedInfected of them in a cluster at the center.
func (m *Model) NewPopulation(n int, seed uint64) []*agent.Agent {
	pop := agent.NewBlock(m.s, n)
	seeded := m.P.SeedInfected
	if seeded > n {
		seeded = n
	}
	for i, a := range pop {
		rng := agent.NewRNG(seed, 0, a.ID)
		radius := m.P.WorldRadius * 0.9
		if i < seeded {
			radius = m.P.SeedRadius
			a.State[m.status] = Infected
		}
		r := radius * math.Sqrt(rng.Float64())
		th := rng.Range(0, 2*math.Pi)
		a.State[m.x] = r * math.Cos(th)
		a.State[m.y] = r * math.Sin(th)
	}
	return pop
}

// Status returns an agent's disease state (Susceptible, Infected or
// Recovered).
func (m *Model) Status(a *agent.Agent) int { return int(a.State[m.status]) }

// Counts tallies a population by disease state.
func (m *Model) Counts(pop []*agent.Agent) (s, i, r int) {
	for _, a := range pop {
		switch int(a.State[m.status]) {
		case Susceptible:
			s++
		case Infected:
			i++
		default:
			r++
		}
	}
	return
}

var _ engine.Model = (*Model)(nil)
