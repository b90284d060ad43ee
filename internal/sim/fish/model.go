// Package fish implements the Couzin et al. fish school model the paper
// evaluates (§5.1, App. C): "Effective leadership and decision-making in
// animal groups on the move" [12]. Each fish avoids neighbors closer than
// the avoidance radius α; otherwise it is attracted to and aligns with
// neighbors within the visibility radius ρ. Informed individuals balance
// their social vector with a preferred direction g using weight ω.
//
// The experiments use two classes of informed individuals with opposite
// preferred directions, so the school gradually splits into two groups at
// the extremes of the (unbounded) ocean — the load-skew driver of
// Figs. 7–8.
package fish

import (
	"math"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/geom"
)

// Params holds the Couzin model constants.
type Params struct {
	// Alpha is the avoidance radius α.
	Alpha float64
	// Rho is the attraction/visibility radius ρ (> α); Fig. 4 sweeps it.
	Rho float64
	// Speed is the constant cruise speed per tick.
	Speed float64
	// Omega is the informed individuals' preference weight ω.
	Omega float64
	// TurnNoise perturbs the heading each tick (radians, uniform ±).
	TurnNoise float64
	// InformedFrac is the fraction of fish that are informed, split
	// evenly between the two preferred directions (±x).
	InformedFrac float64
	// SchoolRadius is the initial placement radius.
	SchoolRadius float64
}

// DefaultParams returns the calibration used by the experiments.
func DefaultParams() Params {
	return Params{
		Alpha:        1,
		Rho:          10,
		Speed:        1,
		Omega:        0.4,
		TurnNoise:    0.05,
		InformedFrac: 0.1,
		SchoolRadius: 30,
	}
}

// Model is the BRACE form of the fish school. All effect assignments are
// local (the paper: "Neither of these simulations uses non-local effect
// assignments"), so the engine runs the single-reduce dataflow.
type Model struct {
	P Params

	s *agent.Schema
	// state: position, heading, class (0 uninformed, ±1 informed)
	x, y, hx, hy, class int
	// effects
	avx, avy, cntAv    int // avoidance accumulator
	atx, aty, alx, aly int // attraction + alignment accumulators
	cntSoc             int
}

// NewModel builds the schema.
func NewModel(p Params) *Model {
	m := &Model{P: p}
	s := agent.NewSchema("Fish")
	m.s = s
	m.x = s.AddState("x", true)
	m.y = s.AddState("y", true)
	m.hx = s.AddState("hx", true)
	m.hy = s.AddState("hy", true)
	m.class = s.AddState("class", false)
	m.avx = s.AddEffect("avoidx", false, agent.Sum)
	m.avy = s.AddEffect("avoidy", false, agent.Sum)
	m.cntAv = s.AddEffect("countAvoid", false, agent.Sum)
	m.atx = s.AddEffect("attractx", false, agent.Sum)
	m.aty = s.AddEffect("attracty", false, agent.Sum)
	m.alx = s.AddEffect("alignx", false, agent.Sum)
	m.aly = s.AddEffect("aligny", false, agent.Sum)
	m.cntSoc = s.AddEffect("countSocial", false, agent.Sum)
	s.SetPosition("x", "y")
	s.SetVisibility(p.Rho)
	s.SetReach(p.Speed + 1e-9)
	return m
}

// Schema implements engine.Model.
func (m *Model) Schema() *agent.Schema { return m.s }

// Query implements engine.Model: accumulate the avoidance and social
// (attraction + alignment) vectors over the state columns. Both
// accumulations are sums, so the query is exactly order-independent. Like
// the traffic model (and the BRASIL compiler's output), it folds into
// local variables and assigns each effect once: every field still
// receives the same additions in the same neighbor order starting from
// θ = 0, so the result is bit-identical to per-neighbor assignment. This
// is the hottest loop of the benchmark suite.
func (m *Model) Query(env *engine.Cols, self int32) {
	xs, ys := env.State(m.x), env.State(m.y)
	hxs, hys := env.State(m.hx), env.State(m.hy)
	sx, sy := xs[self], ys[self]
	a2 := m.P.Alpha * m.P.Alpha
	var avx, avy, cntAv float64
	var atx, aty, alx, aly, cntSoc float64
	for _, j := range env.Visible() {
		if j == self {
			continue
		}
		dx, dy := xs[j]-sx, ys[j]-sy
		d2 := dx*dx + dy*dy
		if d2 == 0 {
			continue
		}
		d := math.Sqrt(d2)
		if d2 < a2 {
			// Avoidance: turn away from too-close neighbors.
			avx += -dx / d
			avy += -dy / d
			cntAv++
			continue
		}
		// Attraction toward, and alignment with, visible neighbors.
		atx += dx / d
		aty += dy / d
		alx += hxs[j]
		aly += hys[j]
		cntSoc++
	}
	env.Assign(self, m.avx, avx)
	env.Assign(self, m.avy, avy)
	env.Assign(self, m.cntAv, cntAv)
	env.Assign(self, m.atx, atx)
	env.Assign(self, m.aty, aty)
	env.Assign(self, m.alx, alx)
	env.Assign(self, m.aly, aly)
	env.Assign(self, m.cntSoc, cntSoc)
}

// Update implements engine.Model: compose the desired direction per
// Couzin's priority rule, blend the informed preference, perturb, move.
func (m *Model) Update(self *agent.Agent, u *engine.UpdateCtx) {
	var dir geom.Vec
	if self.Effect[m.cntAv] > 0 {
		// Avoidance has strict priority.
		dir = geom.V(self.Effect[m.avx], self.Effect[m.avy])
	} else if self.Effect[m.cntSoc] > 0 {
		dir = geom.V(
			self.Effect[m.atx]+self.Effect[m.alx],
			self.Effect[m.aty]+self.Effect[m.aly],
		)
	} else {
		dir = geom.V(self.State[m.hx], self.State[m.hy])
	}
	dir = dir.Norm()
	if dir == (geom.Vec{}) {
		dir = geom.V(self.State[m.hx], self.State[m.hy])
	}
	if c := self.State[m.class]; c != 0 {
		g := geom.V(c, 0) // preferred direction ±x
		dir = dir.Add(g.Scale(m.P.Omega)).Norm()
	}
	// Angular noise.
	dir = dir.Rotate(u.RNG.Range(-m.P.TurnNoise, m.P.TurnNoise))
	self.State[m.hx] = dir.X
	self.State[m.hy] = dir.Y
	self.State[m.x] += m.P.Speed * dir.X
	self.State[m.y] += m.P.Speed * dir.Y
}

// NewPopulation places n fish uniformly in a disc with random headings;
// InformedFrac of them are informed, alternating between the +x and −x
// preferred directions.
func (m *Model) NewPopulation(n int, seed uint64) []*agent.Agent {
	pop := make([]*agent.Agent, n)
	informed := int(float64(n) * m.P.InformedFrac)
	for i := 0; i < n; i++ {
		id := agent.ID(i + 1)
		rng := agent.NewRNG(seed, 0, id)
		a := agent.New(m.s, id)
		r := m.P.SchoolRadius * math.Sqrt(rng.Float64())
		th := rng.Range(0, 2*math.Pi)
		a.State[m.x] = r * math.Cos(th)
		a.State[m.y] = r * math.Sin(th)
		h := rng.Range(0, 2*math.Pi)
		a.State[m.hx] = math.Cos(h)
		a.State[m.hy] = math.Sin(h)
		if i < informed {
			if i%2 == 0 {
				a.State[m.class] = 1
			} else {
				a.State[m.class] = -1
			}
		}
		pop[i] = a
	}
	return pop
}

// Pos returns a fish's position.
func (m *Model) Pos(a *agent.Agent) geom.Vec { return a.Pos(m.s) }

// Class returns 0 for uninformed fish, ±1 for the two informed classes.
func (m *Model) Class(a *agent.Agent) float64 { return a.State[m.class] }

var _ engine.Model = (*Model)(nil)
