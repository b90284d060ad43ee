package engine

import (
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/spatial"
)

// lifecyclePushModel combines every engine feature in one model: non-local
// effects (two-reduce dataflow), spawning, death, and movement — a
// predator-like stress model for the everything-on integration test.
type lifecyclePushModel struct {
	s        *agent.Schema
	x, y, en int
	hurt     int
}

func newLifecyclePushModel() *lifecyclePushModel {
	m := &lifecyclePushModel{}
	s := agent.NewSchema("Stress")
	m.s = s
	m.x = s.AddState("x", true)
	m.y = s.AddState("y", true)
	m.en = s.AddState("en", true)
	m.hurt = s.AddEffect("hurt", true, agent.Sum)
	s.SetPosition("x", "y").SetVisibility(4).SetReach(1.5)
	return m
}

func (m *lifecyclePushModel) Schema() *agent.Schema    { return m.s }
func (m *lifecyclePushModel) HasNonLocalEffects() bool { return true }

func (m *lifecyclePushModel) Query(self *agent.Agent, env Env) {
	env.Nearby(2, func(o *agent.Agent) {
		if o.ID != self.ID && self.State[m.en] > o.State[m.en] {
			env.Assign(o, m.hurt, 0.4)
		}
	})
}

func (m *lifecyclePushModel) Update(self *agent.Agent, u *UpdateCtx) {
	e := self.State[m.en] - self.Effect[m.hurt] + 0.15
	if e <= 0 {
		u.Kill(self)
		return
	}
	if e > 10 {
		e /= 2
		c := u.Spawn()
		c.State[m.x] = self.State[m.x] + u.RNG.Range(-1, 1)
		c.State[m.y] = self.State[m.y] + u.RNG.Range(-1, 1)
		c.State[m.en] = e / 2
	}
	self.State[m.en] = e
	self.State[m.x] += u.RNG.Range(-1, 1)
	self.State[m.y] += u.RNG.Range(-1, 1)
}

// Everything on at once: non-local effects (map-reduce-reduce), spawning
// and death, load balancing, checkpoints, and a mid-run crash. The run
// must (a) complete, (b) recover exactly once, and (c) be reproducible:
// an identical second run (same failure plan) ends bit-identical.
func TestEverythingOnIntegration(t *testing.T) {
	m := newLifecyclePushModel()
	mkpop := func() []*agent.Agent {
		pop := make([]*agent.Agent, 80)
		for i := range pop {
			id := agent.ID(i + 1)
			rng := agent.NewRNG(77, 0, id)
			a := agent.New(m.s, id)
			a.State[m.x] = rng.Range(0, 40)
			a.State[m.y] = rng.Range(0, 40)
			a.State[m.en] = rng.Range(3, 9)
			pop[i] = a
		}
		return pop
	}
	run := func() agent.Population {
		e, err := NewDistributed(m, mkpop(), Options{
			Workers: 4, Index: spatial.KindKDTree, Seed: 17,
			EpochTicks: 4, CheckpointEveryEpochs: 1, LoadBalance: true,
			Failures: cluster.NewFailurePlan().CrashAt(9, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunTicks(24); err != nil {
			t.Fatal(err)
		}
		if e.Recoveries() != 1 {
			t.Fatalf("Recoveries = %d, want 1", e.Recoveries())
		}
		return e.Agents()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("population died out")
	}
	popsExactlyEqual(t, "everything-on reproducibility", a, b)
}

// The same stress model must also survive an index-kind change with only
// FP-reassociation-level drift (non-local ⊕ order depends on partitions,
// not on the index), and match the naive oracle on 1 worker exactly.
func TestStressModelOneWorkerMatchesSequential(t *testing.T) {
	m := newLifecyclePushModel()
	mkpop := func() []*agent.Agent {
		pop := make([]*agent.Agent, 50)
		for i := range pop {
			id := agent.ID(i + 1)
			rng := agent.NewRNG(78, 0, id)
			a := agent.New(m.s, id)
			a.State[m.x] = rng.Range(0, 30)
			a.State[m.y] = rng.Range(0, 30)
			a.State[m.en] = rng.Range(3, 9)
			pop[i] = a
		}
		return pop
	}
	want := Naive(m, mkpop(), 17, 15)
	one, err := NewDistributed(m, mkpop(), Options{Workers: 1, Index: spatial.KindKDTree, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := one.RunTicks(15); err != nil {
		t.Fatal(err)
	}
	popsExactlyEqual(t, "stress 1-worker", want, one.Agents())
}
