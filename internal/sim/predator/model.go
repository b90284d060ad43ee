// Package predator implements the paper's predator simulation (§5.1,
// App. C): an artificial-society-style model where fish "spawn" new fish
// and "bite" weaker fish, "so density naturally approaches an equilibrium
// value at which births and deaths are balanced".
//
// The bite is the paper's canonical non-local effect: a biter assigns a
// "hurt" effect to its victims. Because the paper's compiler did not yet
// implement effect inversion, they programmed the behavior twice — as a
// non-local assignment (fish assign hurt to others) and as a local one
// (fish collect hurt from others) — in otherwise identical scripts. We do
// the same: NewModel(Inverted: false) declares non-local effects and runs
// on the two-reduce dataflow; NewModel(Inverted: true) is the
// effect-inverted equivalent on the single-reduce dataflow (Fig. 5's
// Inv configurations). Theorem 2 says they compute the same simulation;
// the tests verify it exactly on one partition.
package predator

import (
	"math"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/geom"
)

// Params holds the model constants.
type Params struct {
	// BiteRadius bounds who a fish can bite (< Visibility).
	BiteRadius float64
	// Visibility is the schema visibility bound ρ.
	Visibility float64
	// BiteDamage is the energy a bite removes.
	BiteDamage float64
	// BiteGain is the energy the biter receives per victim.
	BiteGain float64
	// Metabolism is the per-tick upkeep cost.
	Metabolism float64
	// Graze is the per-tick ambient energy intake (plankton); Graze >
	// Metabolism lets isolated fish slowly gain energy and spawn, while
	// crowding causes bite losses — the mechanism behind the density
	// equilibrium App. C describes.
	Graze float64
	// SpawnEnergy is the threshold above which a fish splits.
	SpawnEnergy float64
	// InitEnergy is a newborn's energy.
	InitEnergy float64
	// Speed is the per-tick random-walk step.
	Speed float64
	// WorldRadius softly confines the population (drift back toward the
	// origin beyond it) so density stays meaningful.
	WorldRadius float64
}

// DefaultParams returns the calibration used by the experiments.
func DefaultParams() Params {
	return Params{
		BiteRadius:  2,
		Visibility:  5,
		BiteDamage:  1.0,
		BiteGain:    0.3,
		Metabolism:  0.15,
		Graze:       0.4,
		SpawnEnergy: 12,
		InitEnergy:  6,
		Speed:       0.8,
		WorldRadius: 60,
	}
}

// Model implements both the non-local and the hand-inverted predator
// scripts, selected by Inverted.
type Model struct {
	P        Params
	Inverted bool

	s *agent.Schema
	// state
	x, y, energy int
	// effects
	hurt, fed int
}

// NewModel builds the schema. When inverted, bites are *collected* by the
// victim (local assignments only); otherwise they are *assigned* by the
// biter (non-local).
func NewModel(p Params, inverted bool) *Model {
	m := &Model{P: p, Inverted: inverted}
	s := agent.NewSchema("Predator")
	m.s = s
	m.x = s.AddState("x", true)
	m.y = s.AddState("y", true)
	m.energy = s.AddState("energy", true)
	m.hurt = s.AddEffect("hurt", true, agent.Sum)
	m.fed = s.AddEffect("fed", false, agent.Sum)
	s.SetPosition("x", "y")
	s.SetVisibility(p.Visibility)
	s.SetReach(p.Speed + 1e-9)
	return m
}

// Schema implements engine.Model.
func (m *Model) Schema() *agent.Schema { return m.s }

// HasNonLocalEffects implements engine.NonLocalModel.
func (m *Model) HasNonLocalEffects() bool { return !m.Inverted }

// Query implements engine.Model: a fish bites every strictly weaker fish
// within the bite radius. In both variants the biter's feeding gain is a
// *local* assignment (counting my victims only reads visible state), so
// the variants differ solely in how hurt reaches the victim: the
// non-local script assigns it to the victim's row, the inverted one
// collects it from everyone biting me. The pair test depends only on the
// pair's states and a symmetric distance (dx negates exactly), which is
// what makes the inversion exact (Theorem 2).
func (m *Model) Query(env *engine.Cols, self int32) {
	xs, ys := env.State(m.x), env.State(m.y)
	es := env.State(m.energy)
	sx, sy, se := xs[self], ys[self], es[self]
	r2 := m.P.BiteRadius * m.P.BiteRadius
	var fed, hurt float64
	for _, j := range env.Nearby(m.P.BiteRadius) {
		if j == self {
			continue
		}
		dx, dy := sx-xs[j], sy-ys[j]
		if dx*dx+dy*dy > r2 {
			continue
		}
		if se > es[j] {
			fed += m.P.BiteGain
			if !m.Inverted {
				env.Assign(j, m.hurt, m.P.BiteDamage)
			}
		}
		if m.Inverted && es[j] > se {
			hurt += m.P.BiteDamage
		}
	}
	env.Assign(self, m.fed, fed)
	if m.Inverted {
		env.Assign(self, m.hurt, hurt)
	}
}

// Update implements engine.Model: settle the tick's energy budget, then
// die, split, or move.
func (m *Model) Update(self *agent.Agent, u *engine.UpdateCtx) {
	e := self.State[m.energy] + self.Effect[m.fed] - self.Effect[m.hurt] + m.P.Graze - m.P.Metabolism
	if e <= 0 {
		u.Kill(self)
		return
	}
	if e >= m.P.SpawnEnergy {
		// Split: parent keeps half, child gets InitEnergy.
		e /= 2
		c := u.Spawn()
		c.State[m.x] = self.State[m.x] + u.RNG.Range(-1, 1)
		c.State[m.y] = self.State[m.y] + u.RNG.Range(-1, 1)
		c.State[m.energy] = m.P.InitEnergy
	}
	self.State[m.energy] = e

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

// NewPopulation scatters n fish uniformly in the world disc with energies
// jittered around InitEnergy.
func (m *Model) NewPopulation(n int, seed uint64) []*agent.Agent {
	pop := make([]*agent.Agent, n)
	for i := 0; i < n; i++ {
		id := agent.ID(i + 1)
		rng := agent.NewRNG(seed, 0, id)
		a := agent.New(m.s, id)
		r := m.P.WorldRadius * 0.8 * math.Sqrt(rng.Float64())
		th := rng.Range(0, 2*math.Pi)
		a.State[m.x] = r * math.Cos(th)
		a.State[m.y] = r * math.Sin(th)
		a.State[m.energy] = m.P.InitEnergy * rng.Range(0.5, 1.5)
		pop[i] = a
	}
	return pop
}

// Energy returns a fish's energy level.
func (m *Model) Energy(a *agent.Agent) float64 { return a.State[m.energy] }

var (
	_ engine.Model         = (*Model)(nil)
	_ engine.NonLocalModel = (*Model)(nil)
)
