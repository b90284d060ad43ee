package predator

import (
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/geom"
	"github.com/bigreddata/brace/internal/spatial"
)

func clonePop(pop []*agent.Agent) []*agent.Agent {
	out := make([]*agent.Agent, len(pop))
	for i, a := range pop {
		out[i] = a.Clone()
	}
	return out
}

// Effect inversion (Theorem 2): the non-local script and its inverted
// local form compute the same simulation. On one partition both fold each
// victim's hurt in ascending biter-ID order, so the agreement is
// exact, not approximate.
func TestInvertedScriptMatchesNonLocalExactly(t *testing.T) {
	p := DefaultParams()
	nl := NewModel(p, false)
	inv := NewModel(p, true)
	base := nl.NewPopulation(200, 1)

	e1, err := engine.NewDistributed(nl, clonePop(base), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := engine.NewDistributed(inv, clonePop(base), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 20
	if err := e1.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	if err := e2.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	a, b := e1.Agents(), e2.Agents()
	if len(a) != len(b) {
		t.Fatalf("population sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("agent %d diverged:\n%v\n%v", a[i].ID, a[i], b[i])
		}
	}
}

// The inverted (local-only) model must agree exactly between one
// partition and many.
func TestInvertedDistributedMatchesSequential(t *testing.T) {
	p := DefaultParams()
	inv := NewModel(p, true)
	base := inv.NewPopulation(150, 2)
	seq, err := engine.NewDistributed(inv, clonePop(base), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.RunTicks(15); err != nil {
		t.Fatal(err)
	}
	dist, err := engine.NewDistributed(inv, clonePop(base), engine.Options{
		Workers: 4, Index: spatial.KindKDTree, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RunTicks(15); err != nil {
		t.Fatal(err)
	}
	a, b := seq.Agents(), dist.Agents()
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("agent %d diverged", a[i].ID)
		}
	}
}

// The non-local model on the two-reduce dataflow agrees with one partition
// up to floating-point reassociation of the global ⊕.
func TestNonLocalDistributedApproxSequential(t *testing.T) {
	p := DefaultParams()
	nl := NewModel(p, false)
	base := nl.NewPopulation(150, 3)
	seq, err := engine.NewDistributed(nl, clonePop(base), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.RunTicks(10); err != nil {
		t.Fatal(err)
	}
	dist, err := engine.NewDistributed(nl, clonePop(base), engine.Options{
		Workers: 4, Index: spatial.KindKDTree, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RunTicks(10); err != nil {
		t.Fatal(err)
	}
	a, b := seq.Agents(), dist.Agents()
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("ID mismatch at %d", i)
		}
		for j := range a[i].State {
			d := a[i].State[j] - b[i].State[j]
			if d > 1e-7 || d < -1e-7 {
				t.Fatalf("agent %d state[%d] differs by %g", a[i].ID, j, d)
			}
		}
	}
}

func TestBitePredicate(t *testing.T) {
	p := DefaultParams()
	m := NewModel(p, false)
	strong := agent.New(m.s, 1)
	strong.SetPos(m.s, geom.V(0, 0))
	strong.State[m.energy] = 10
	weak := agent.New(m.s, 2)
	weak.SetPos(m.s, geom.V(1, 0))
	weak.State[m.energy] = 5
	far := agent.New(m.s, 3)
	far.SetPos(m.s, geom.V(100, 0))
	far.State[m.energy] = 1

	if !m.bites(strong, weak) {
		t.Error("strong should bite adjacent weak")
	}
	if m.bites(weak, strong) {
		t.Error("weak should not bite strong")
	}
	if m.bites(strong, far) {
		t.Error("bite beyond radius")
	}
	if m.bites(strong, strong) {
		t.Error("self bite")
	}
}

func TestBiteTransfersEnergy(t *testing.T) {
	p := DefaultParams()
	m := NewModel(p, false)
	strong := agent.New(m.s, 1)
	strong.SetPos(m.s, geom.V(0, 0))
	strong.State[m.energy] = 10
	weak := agent.New(m.s, 2)
	weak.SetPos(m.s, geom.V(1, 0))
	weak.State[m.energy] = 5
	e, err := engine.NewDistributed(m, []*agent.Agent{strong, weak}, engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	got := e.Agents()
	// strong: +gain +graze −metabolism; weak: −damage +graze −metabolism.
	wantStrong := 10 + p.BiteGain + p.Graze - p.Metabolism
	wantWeak := 5 - p.BiteDamage + p.Graze - p.Metabolism
	if got[0].State[m.energy] != wantStrong {
		t.Errorf("biter energy = %v, want %v", got[0].State[m.energy], wantStrong)
	}
	if got[1].State[m.energy] != wantWeak {
		t.Errorf("victim energy = %v, want %v", got[1].State[m.energy], wantWeak)
	}
}

func TestStarvationKills(t *testing.T) {
	p := DefaultParams()
	p.Graze = 0 // barren water: metabolism drains energy
	m := NewModel(p, true)
	a := agent.New(m.s, 1)
	a.State[m.energy] = 3 * p.Metabolism // survives 2 ticks, dies on the 3rd
	e, err := engine.NewDistributed(m, []*agent.Agent{a}, engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(2); err != nil {
		t.Fatal(err)
	}
	if len(e.Agents()) != 1 {
		t.Fatal("died too early")
	}
	if err := e.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	if len(e.Agents()) != 0 {
		t.Fatal("starved fish survived")
	}
}

func TestSpawnSplitsEnergy(t *testing.T) {
	p := DefaultParams()
	m := NewModel(p, true)
	a := agent.New(m.s, 1)
	a.State[m.energy] = p.SpawnEnergy + 1
	e, err := engine.NewDistributed(m, []*agent.Agent{a}, engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	got := e.Agents()
	if len(got) != 2 {
		t.Fatalf("population = %d, want 2 after spawn", len(got))
	}
	var parent, child *agent.Agent
	for _, x := range got {
		if x.ID == 1 {
			parent = x
		} else {
			child = x
		}
	}
	if parent == nil || child == nil {
		t.Fatal("parent/child missing")
	}
	if parent.State[m.energy] >= p.SpawnEnergy {
		t.Errorf("parent kept too much energy: %v", parent.State[m.energy])
	}
	if child.State[m.energy] != p.InitEnergy {
		t.Errorf("child energy = %v, want %v", child.State[m.energy], p.InitEnergy)
	}
}

// Density equilibrium (App. C): the population neither explodes nor dies
// out over a long run.
func TestDensityEquilibrium(t *testing.T) {
	if testing.Short() {
		t.Skip("long equilibrium run")
	}
	p := DefaultParams()
	m := NewModel(p, true)
	e, err := engine.NewDistributed(m, m.NewPopulation(300, 5), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(200); err != nil {
		t.Fatal(err)
	}
	n := len(e.Agents())
	if n < 50 || n > 3000 {
		t.Errorf("population %d left the plausible equilibrium band", n)
	}
}
