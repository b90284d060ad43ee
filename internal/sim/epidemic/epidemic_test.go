package epidemic

import (
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/spatial"
)

func TestPopulationLayout(t *testing.T) {
	m := NewModel(DefaultParams())
	pop := m.NewPopulation(500, 1)
	if len(pop) != 500 {
		t.Fatalf("population = %d", len(pop))
	}
	s, i, r := m.Counts(pop)
	if i != m.P.SeedInfected {
		t.Errorf("initially infected = %d, want %d", i, m.P.SeedInfected)
	}
	if r != 0 {
		t.Errorf("initially recovered = %d, want 0", r)
	}
	if s+i != 500 {
		t.Errorf("S+I = %d, want 500", s+i)
	}
	for idx, a := range pop {
		pos := a.Pos(m.s)
		limit := m.P.WorldRadius * 0.9
		if idx < m.P.SeedInfected {
			limit = m.P.SeedRadius
		}
		if pos.Len() > limit+1e-9 {
			t.Errorf("agent %d at %v, beyond placement radius %v", a.ID, pos, limit)
		}
	}
}

func TestEpidemicSpreadsAndRecovers(t *testing.T) {
	p := DefaultParams()
	m := NewModel(p)
	e, err := engine.NewDistributed(m, m.NewPopulation(800, 2), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(60); err != nil {
		t.Fatal(err)
	}
	s, i, r := m.Counts(e.Agents())
	if i+r <= m.P.SeedInfected {
		t.Errorf("no spread: S=%d I=%d R=%d", s, i, r)
	}
	if r == 0 {
		t.Errorf("nobody recovered after 60 ticks (RecoverTicks=%v)", p.RecoverTicks)
	}
	if s == 0 {
		t.Errorf("everyone infected in 60 ticks; spread unrealistically fast")
	}
}

func TestRecoveredAreImmune(t *testing.T) {
	// A recovered agent surrounded by infected neighbors must stay
	// recovered: no reinfection path exists in SIR.
	p := DefaultParams()
	p.Speed = 0 // hold the cluster together
	m := NewModel(p)
	var pop []*agent.Agent
	center := agent.New(m.s, 1)
	center.State[m.status] = Recovered
	pop = append(pop, center)
	for i := 0; i < 6; i++ {
		a := agent.New(m.s, agent.ID(i+2))
		a.SetPos(m.s, geom.V(0.5, 0).Rotate(float64(i)))
		a.State[m.status] = Infected
		pop = append(pop, a)
	}
	e, err := engine.NewDistributed(m, pop, engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(5); err != nil {
		t.Fatal(err)
	}
	if got := m.Status(e.Agents()[0]); got != Recovered {
		t.Errorf("recovered agent re-entered state %d", got)
	}
}

func TestIsolatedSusceptibleStaysHealthy(t *testing.T) {
	m := NewModel(DefaultParams())
	a := agent.New(m.s, 1)
	a.SetPos(m.s, geom.V(0, 0))
	b := agent.New(m.s, 2)
	b.SetPos(m.s, geom.V(200, 0)) // far outside the infection radius
	b.State[m.status] = Infected
	e, err := engine.NewDistributed(m, []*agent.Agent{a, b}, engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(10); err != nil {
		t.Fatal(err)
	}
	if got := m.Status(e.Agents()[0]); got != Susceptible {
		t.Errorf("isolated agent caught the infection at 200m (status %d)", got)
	}
}

func TestInfectionRunsItsCourse(t *testing.T) {
	// An infected agent recovers after exactly RecoverTicks.
	p := DefaultParams()
	p.Speed = 0
	m := NewModel(p)
	a := agent.New(m.s, 1)
	a.State[m.status] = Infected
	e, err := engine.NewDistributed(m, []*agent.Agent{a}, engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(int(p.RecoverTicks) - 1); err != nil {
		t.Fatal(err)
	}
	if got := m.Status(e.Agents()[0]); got != Infected {
		t.Fatalf("recovered one tick early (status %d)", got)
	}
	if err := e.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	if got := m.Status(e.Agents()[0]); got != Recovered {
		t.Errorf("not recovered after %v ticks (status %d)", p.RecoverTicks, got)
	}
}

func TestSequentialMatchesDistributed(t *testing.T) {
	m := NewModel(DefaultParams())
	pop := m.NewPopulation(200, 6)
	pop2 := make([]*agent.Agent, len(pop))
	for i, a := range pop {
		pop2[i] = a.Clone()
	}
	seq, err := engine.NewDistributed(m, pop, engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := engine.NewDistributed(m, pop2, engine.Options{
		Workers: 5, Index: spatial.KindKDTree, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.RunTicks(25); err != nil {
		t.Fatal(err)
	}
	if err := dist.RunTicks(25); err != nil {
		t.Fatal(err)
	}
	a, b := seq.Agents(), dist.Agents()
	if len(a) != len(b) {
		t.Fatalf("sizes differ")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("agent %d diverged", a[i].ID)
		}
	}
}
