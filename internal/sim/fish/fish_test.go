package fish

import (
	"math"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/spatial"
)

func TestPopulationLayout(t *testing.T) {
	m := NewModel(DefaultParams())
	pop := m.NewPopulation(100, 1)
	if len(pop) != 100 {
		t.Fatalf("population = %d", len(pop))
	}
	informed := 0
	plus, minus := 0, 0
	for _, a := range pop {
		if r := m.Pos(a).Len(); r > m.P.SchoolRadius {
			t.Errorf("fish outside school radius: %v", r)
		}
		h := math.Hypot(a.State[m.hx], a.State[m.hy])
		if math.Abs(h-1) > 1e-9 {
			t.Errorf("heading not unit length: %v", h)
		}
		switch m.Class(a) {
		case 1:
			informed++
			plus++
		case -1:
			informed++
			minus++
		}
	}
	if informed != 10 {
		t.Errorf("informed = %d, want 10", informed)
	}
	if plus != 5 || minus != 5 {
		t.Errorf("informed split = %d/%d", plus, minus)
	}
}

func TestSequentialMatchesDistributed(t *testing.T) {
	m := NewModel(DefaultParams())
	pop := m.NewPopulation(150, 2)
	pop2 := make([]*agent.Agent, len(pop))
	for i, a := range pop {
		pop2[i] = a.Clone()
	}
	seq, err := engine.NewDistributed(m, pop, engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := engine.NewDistributed(m, pop2, engine.Options{
		Workers: 5, Index: spatial.KindKDTree, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.RunTicks(15); err != nil {
		t.Fatal(err)
	}
	if err := dist.RunTicks(15); err != nil {
		t.Fatal(err)
	}
	a, b := seq.Agents(), dist.Agents()
	if len(a) != len(b) {
		t.Fatalf("sizes differ")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("fish %d diverged", a[i].ID)
		}
	}
}

func TestHeadingsStayUnit(t *testing.T) {
	m := NewModel(DefaultParams())
	e, err := engine.NewDistributed(m, m.NewPopulation(80, 3), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(30); err != nil {
		t.Fatal(err)
	}
	for _, a := range e.Agents() {
		h := math.Hypot(a.State[m.hx], a.State[m.hy])
		if math.Abs(h-1) > 1e-6 {
			t.Fatalf("fish %d heading norm %v", a.ID, h)
		}
	}
}

func TestAvoidanceSeparatesPair(t *testing.T) {
	p := DefaultParams()
	p.TurnNoise = 0 // deterministic geometry
	p.InformedFrac = 0
	m := NewModel(p)
	a := agent.New(m.s, 1)
	a.SetPos(m.s, geom.V(0, 0))
	a.State[m.hx] = 1
	b := agent.New(m.s, 2)
	b.SetPos(m.s, geom.V(0.5, 0)) // inside avoidance radius α=1
	b.State[m.hx] = 1
	e, err := engine.NewDistributed(m, []*agent.Agent{a, b}, engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d0 := a.Pos(m.s).Dist(b.Pos(m.s))
	if err := e.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	got := e.Agents()
	d1 := got[0].Pos(m.s).Dist(got[1].Pos(m.s))
	if d1 <= d0 {
		t.Errorf("avoidance did not separate: %v -> %v", d0, d1)
	}
}

func TestAttractionPullsPairTogether(t *testing.T) {
	p := DefaultParams()
	p.TurnNoise = 0
	p.InformedFrac = 0
	m := NewModel(p)
	a := agent.New(m.s, 1)
	a.SetPos(m.s, geom.V(0, 0))
	a.State[m.hy] = 1 // heading +y, neighbor to the east
	b := agent.New(m.s, 2)
	b.SetPos(m.s, geom.V(5, 0)) // inside ρ=10, outside α=1
	b.State[m.hy] = 1
	e, err := engine.NewDistributed(m, []*agent.Agent{a, b}, engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d0 := a.Pos(m.s).Dist(b.Pos(m.s))
	if err := e.RunTicks(2); err != nil {
		t.Fatal(err)
	}
	got := e.Agents()
	d1 := got[0].Pos(m.s).Dist(got[1].Pos(m.s))
	if d1 >= d0 {
		t.Errorf("attraction did not pull together: %v -> %v", d0, d1)
	}
}

func TestInformedClassesSplitSchool(t *testing.T) {
	// The two informed classes pull the school apart along x over time —
	// the load-skew driver of Figs. 7–8.
	p := DefaultParams()
	p.InformedFrac = 0.2
	p.Omega = 0.8
	m := NewModel(p)
	e, err := engine.NewDistributed(m, m.NewPopulation(200, 4), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	spreadX := func() float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, a := range e.Agents() {
			x := m.Pos(a).X
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return hi - lo
	}
	s0 := spreadX()
	if err := e.RunTicks(150); err != nil {
		t.Fatal(err)
	}
	s1 := spreadX()
	if s1 < s0*2 {
		t.Errorf("school did not spread: %v -> %v", s0, s1)
	}
	// Informed classes should sit on opposite sides: mean x of class +1
	// greater than mean x of class −1.
	var sumP, sumM float64
	var nP, nM int
	for _, a := range e.Agents() {
		switch m.Class(a) {
		case 1:
			sumP += m.Pos(a).X
			nP++
		case -1:
			sumM += m.Pos(a).X
			nM++
		}
	}
	if nP == 0 || nM == 0 {
		t.Fatal("informed classes missing")
	}
	if sumP/float64(nP) <= sumM/float64(nM) {
		t.Errorf("informed classes did not separate: +x mean %v, -x mean %v",
			sumP/float64(nP), sumM/float64(nM))
	}
}

func TestLonelyFishKeepsSwimming(t *testing.T) {
	p := DefaultParams()
	p.TurnNoise = 0
	p.InformedFrac = 0
	m := NewModel(p)
	a := agent.New(m.s, 1)
	a.State[m.hx] = 1
	e, err := engine.NewDistributed(m, []*agent.Agent{a}, engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(5); err != nil {
		t.Fatal(err)
	}
	got := e.Agents()[0]
	if got.State[m.x] != 5*p.Speed || got.State[m.y] != 0 {
		t.Errorf("lonely fish at (%v,%v), want (%v,0)", got.State[m.x], got.State[m.y], 5*p.Speed)
	}
}

// Building a population allocates one header per fish and a constant
// number of blocks besides: one float block holds every fish's State and
// Effect.
func TestPopulationFloatBlock(t *testing.T) {
	m := NewModel(DefaultParams())
	const n = 2000
	allocs := testing.AllocsPerRun(10, func() { m.NewPopulation(n, 1) })
	t.Logf("%.0f allocations for %d fish", allocs, n)
	if allocs > n+4 {
		t.Errorf("building %d fish allocates %.0f times, want ≤ %d: one header each and O(1) blocks", n, allocs, n+4)
	}
	pop := m.NewPopulation(n, 1)
	theta := m.s.IdentityEffects()
	for _, a := range pop {
		if cap(a.State) != len(a.State) || cap(a.Effect) != len(a.Effect) {
			t.Fatalf("fish %d: vectors not capped (state %d/%d, effect %d/%d)",
				a.ID, len(a.State), cap(a.State), len(a.Effect), cap(a.Effect))
		}
		for i, v := range a.Effect {
			if math.Float64bits(v) != math.Float64bits(theta[i]) {
				t.Fatalf("fish %d: effect %d = %v, want the identity %v", a.ID, i, v, theta[i])
			}
		}
	}
}
