package traffic

import (
	"math"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/brasil"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/spatial"
)

// goFollowTwin mirrors FollowScript operation-for-operation in Go, so the
// BRASIL compiler can be validated bit-for-bit on the traffic domain.
type goFollowTwin struct {
	s                *agent.Schema
	x, y, v, desired int
	gap, vsum, cnt   int
}

func newGoFollowTwin() *goFollowTwin {
	m := &goFollowTwin{}
	s := agent.NewSchema("Car")
	m.s = s
	m.x = s.AddState("x", true)
	m.y = s.AddState("y", true)
	m.v = s.AddState("v", true)
	m.desired = s.AddState("desired", true)
	m.gap = s.AddEffect("gap", false, agent.Min)
	m.vsum = s.AddEffect("vsum", false, agent.Sum)
	m.cnt = s.AddEffect("cnt", false, agent.Sum)
	// Reach is unbounded: x wraps at the ring boundary and the engine's
	// square crop must not clamp the jump (matches the script, whose x
	// field carries no #range tag).
	s.SetPosition("x", "y").SetVisibility(200)
	return m
}

func (m *goFollowTwin) Schema() *agent.Schema { return m.s }

func (m *goFollowTwin) Query(env *engine.Cols, self int32) {
	xs, ys, vs := env.State(m.x), env.State(m.y), env.State(m.v)
	for _, j := range env.Visible() {
		if j == self || ys[j] != ys[self] {
			continue
		}
		d := math.Mod(xs[j]-xs[self]+4000, 4000)
		if d < 200 {
			env.Assign(self, m.gap, d)
			if d < vs[self]*1.6+6 {
				env.Assign(self, m.vsum, vs[j])
				env.Assign(self, m.cnt, 1)
			}
		}
	}
}

func (m *goFollowTwin) Update(self *agent.Agent, u *engine.UpdateCtx) {
	x := self.State[m.x]
	v := self.State[m.v]
	desired := self.State[m.desired]
	gap := self.Effect[m.gap]
	vsum := self.Effect[m.vsum]
	cnt := self.Effect[m.cnt]

	var follow float64
	if cnt > 0 {
		follow = vsum / math.Max(cnt, 1)
	} else {
		follow = desired
	}
	var nv float64
	if gap < 6 {
		nv = v - 34
	} else if gap < v*1.6+6 {
		nv = v + 0.6*(follow-v)
	} else {
		nv = v + 0.3*(desired-v)
	}
	nv = math.Max(0, math.Min(34, nv))

	self.State[m.x] = math.Mod(x+v, 4000)
	self.State[m.v] = nv
}

func followPopulation(s *agent.Schema, n int, seed uint64) []*agent.Agent {
	xi, yi := s.StateIndex("x"), s.StateIndex("y")
	vi, di := s.StateIndex("v"), s.StateIndex("desired")
	pop := make([]*agent.Agent, n)
	for i := range pop {
		id := agent.ID(i + 1)
		rng := agent.NewRNG(seed, 0, id)
		a := agent.New(s, id)
		a.State[xi] = float64(i) * 4000 / float64(n) * rng.Range(0.9, 1.0)
		a.State[yi] = float64(i % 2) // two lanes
		a.State[vi] = rng.Range(20, 30)
		a.State[di] = rng.Range(24, 32)
		pop[i] = a
	}
	return pop
}

// The BRASIL car-following script matches its hand-written Go twin
// bit-for-bit on one partition (the §5.2 parity claim on the traffic
// domain).
func TestFollowScriptMatchesGoTwin(t *testing.T) {
	prog, err := brasil.Compile(FollowScript, brasil.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.HasNonLocalEffects() {
		t.Fatal("follow script should be local-only")
	}
	if prog.Schema().Visibility != 200 {
		t.Fatalf("visibility = %v", prog.Schema().Visibility)
	}
	twin := newGoFollowTwin()

	e1, err := engine.NewDistributed(prog, followPopulation(prog.Schema(), 120, 9), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := engine.NewDistributed(twin, followPopulation(twin.s, 120, 9), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 25
	if err := e1.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	if err := e2.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	a, b := e1.Agents(), e2.Agents()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("BRASIL vs Go twin diverged at car %d:\n%v\n%v", a[i].ID, a[i], b[i])
		}
	}
}

// Physical sanity of the scripted traffic: speeds stay in [0, 34], cars
// stay on the ring, and no rear-end pileup (minimum spacing respected on
// average).
func TestFollowScriptPhysicalInvariants(t *testing.T) {
	prog, err := brasil.Compile(FollowScript, brasil.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := prog.Schema()
	e, err := engine.NewDistributed(prog, followPopulation(s, 160, 10), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(80); err != nil {
		t.Fatal(err)
	}
	xi, vi := s.StateIndex("x"), s.StateIndex("v")
	var vbar float64
	for _, a := range e.Agents() {
		x, v := a.State[xi], a.State[vi]
		if x < 0 || x >= 4000 {
			t.Fatalf("car %d off ring: x=%v", a.ID, x)
		}
		if v < 0 || v > 34 {
			t.Fatalf("car %d speed out of range: %v", a.ID, v)
		}
		vbar += v
	}
	vbar /= float64(len(e.Agents()))
	if vbar < 5 {
		t.Errorf("traffic collapsed: mean speed %v", vbar)
	}
}

// The script also runs on many partitions, identically to one (local
// effects ⇒ exact).
func TestFollowScriptDistributed(t *testing.T) {
	prog, err := brasil.Compile(FollowScript, brasil.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := engine.NewDistributed(prog, followPopulation(prog.Schema(), 100, 11), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := engine.NewDistributed(prog, followPopulation(prog.Schema(), 100, 11), engine.Options{
		Workers: 4, Index: spatial.KindKDTree, Seed: 11,
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
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("scripted traffic diverged across engines at car %d", a[i].ID)
		}
	}
}
