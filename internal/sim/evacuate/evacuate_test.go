package evacuate

import (
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/spatial"
)

func TestPopulationLayout(t *testing.T) {
	m := NewModel(DefaultParams())
	pop := m.NewPopulation(300, 1)
	if len(pop) != 300 {
		t.Fatalf("population = %d", len(pop))
	}
	for _, a := range pop {
		pos := m.Pos(a)
		if pos.X < 0 || pos.X > m.P.Width || pos.Y < 0 || pos.Y > m.P.Height {
			t.Errorf("agent %d placed outside the room: %v", a.ID, pos)
		}
		for _, e := range m.P.Exits {
			if pos.Dist(e) <= m.P.ExitRadius {
				t.Errorf("agent %d placed inside an exit capture disc: %v", a.ID, pos)
			}
		}
	}
}

func TestCrowdDrains(t *testing.T) {
	m := NewModel(DefaultParams())
	e, err := engine.NewDistributed(m, m.NewPopulation(250, 2), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	start := len(e.Agents())
	if err := e.RunTicks(40); err != nil {
		t.Fatal(err)
	}
	mid := len(e.Agents())
	if mid >= start {
		t.Errorf("nobody evacuated in 40 ticks: %d -> %d", start, mid)
	}
	// Run long enough for everyone to reach an exit: the farthest corner
	// is ~|(W,H)| away at speed ~1/tick, with slack for congestion.
	if err := e.RunTicks(400); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Agents()); got != 0 {
		t.Errorf("%d agents never evacuated", got)
	}
}

func TestAgentsStayInRoom(t *testing.T) {
	m := NewModel(DefaultParams())
	e, err := engine.NewDistributed(m, m.NewPopulation(150, 3), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 30; tick++ {
		if err := e.RunTicks(1); err != nil {
			t.Fatal(err)
		}
		for _, a := range e.Agents() {
			pos := m.Pos(a)
			if pos.X < -1e-9 || pos.X > m.P.Width+1e-9 || pos.Y < -1e-9 || pos.Y > m.P.Height+1e-9 {
				t.Fatalf("tick %d: agent %d escaped the room walls: %v", tick, a.ID, pos)
			}
		}
	}
}

func TestLonePedestrianWalksToNearestExit(t *testing.T) {
	p := DefaultParams()
	p.TurnNoise = 0 // deterministic geometry
	m := NewModel(p)
	a := agent.New(m.s, 1)
	a.SetPos(m.s, geom.V(10, 20)) // nearest exit is (0, 20)
	e, err := engine.NewDistributed(m, []*agent.Agent{a}, engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 10m at speed 1 with a 1.5m capture radius: the capture check runs at
	// the top of Update, so the agent is gone within 10 ticks.
	if err := e.RunTicks(10); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Agents()); got != 0 {
		pos := m.Pos(e.Agents()[0])
		t.Errorf("pedestrian never reached the exit; still at %v", pos)
	}
}

func TestRepulsionSeparatesPair(t *testing.T) {
	p := DefaultParams()
	p.TurnNoise = 0
	// Put both agents equidistant from their shared nearest exit so the
	// attraction is symmetric and only repulsion differs.
	m := NewModel(p)
	a := agent.New(m.s, 1)
	a.SetPos(m.s, geom.V(30, 19.5))
	b := agent.New(m.s, 2)
	b.SetPos(m.s, geom.V(30, 20.5)) // 1m apart, inside RepelRadius=3
	e, err := engine.NewDistributed(m, []*agent.Agent{a, b}, engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d0 := a.Pos(m.s).Dist(b.Pos(m.s))
	if err := e.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	got := e.Agents()
	if len(got) != 2 {
		t.Fatal("pair evacuated prematurely")
	}
	d1 := got[0].Pos(m.s).Dist(got[1].Pos(m.s))
	if d1 <= d0 {
		t.Errorf("repulsion did not separate the pair: %v -> %v", d0, d1)
	}
}

func TestSequentialMatchesDistributed(t *testing.T) {
	m := NewModel(DefaultParams())
	pop := m.NewPopulation(180, 6)
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
	// Kills (evacuations) happen mid-run, so this exercises deterministic
	// population shrink across engines.
	if err := seq.RunTicks(30); err != nil {
		t.Fatal(err)
	}
	if err := dist.RunTicks(30); err != nil {
		t.Fatal(err)
	}
	a, b := seq.Agents(), dist.Agents()
	if len(a) != len(b) {
		t.Fatalf("population sizes differ: %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		t.Fatal("everyone evacuated before the comparison window")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("agent %d diverged", a[i].ID)
		}
	}
}
