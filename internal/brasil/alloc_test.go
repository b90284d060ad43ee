//go:build !race

// The race detector makes sync.Pool drop a quarter of its Puts at
// random, so an allocation count taken under it says nothing about the
// pooled frames.

package brasil

import (
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/geom"
)

// sliceEnv is an engine.Env over a fixed slice of agents that allocates
// nothing itself, so any allocation a query phase makes is the script's.
type sliceEnv struct {
	s      *agent.Schema
	self   *agent.Agent
	agents []*agent.Agent
}

func (e *sliceEnv) Self() *agent.Agent { return e.self }

func (e *sliceEnv) ForEachVisible(fn func(*agent.Agent)) {
	for _, a := range e.agents {
		fn(a)
	}
}

func (e *sliceEnv) Nearby(radius float64, fn func(*agent.Agent)) {
	pos := e.self.Pos(e.s)
	for _, a := range e.agents {
		if a.Pos(e.s).Dist2(pos) <= radius*radius {
			fn(a)
		}
	}
}

func (e *sliceEnv) Assign(target *agent.Agent, effectIndex int, value float64) {
	target.Effect[effectIndex] += value
}

// A compiled script's closure plan allocates nothing in steady state: each
// foreach loop's body callback is bound to the pooled frame once, not built
// per loop.
func TestQueryDoesNotAllocate(t *testing.T) {
	for name, src := range map[string]string{"fish": fishSrc, "nested": nestedSrc} {
		p, err := Compile(src, CompileOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := p.Schema()
		env := &sliceEnv{s: s}
		for i := 0; i < 30; i++ {
			a := agent.New(s, agent.ID(i+1))
			a.SetPos(s, geom.V(float64(i%6), float64(i/6)))
			env.agents = append(env.agents, a)
		}
		query := func() {
			for _, a := range env.agents {
				env.self = a
				p.queryClosures(a, env)
			}
		}
		query() // fill the frame pool
		if n := testing.AllocsPerRun(50, query); n != 0 {
			t.Errorf("%s: %v allocations per %d query phases, want 0", name, n, len(env.agents))
		}
	}
}

// TestColumnPlanTickSteadyStateAllocs pins the column plan's allocation
// behaviour, after TestFishTickSteadyStateAllocs: once the pooled frames'
// uniform slots and column buffers have grown to the densest probe, a
// one-partition tick of a compiled script allocates no more than the same
// tick under the closure plan, whose query phase allocates nothing
// (TestQueryDoesNotAllocate) — what is left is the epoch barrier's. One
// allocation per agent or per probe would put 500 agents far past it.
func TestColumnPlanTickSteadyStateAllocs(t *testing.T) {
	tickAllocs := func(m engine.Model) float64 {
		e, err := engine.NewDistributed(m, planPop(m.Schema(), 500, 1, 40), engine.Options{Workers: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunTicks(16); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(32, func() {
			if err := e.RunTicks(1); err != nil {
				t.Fatal(err)
			}
		})
	}
	for name, sc := range planScripts(t) {
		if sc.closes > 0 {
			continue
		}
		p, err := Compile(sc.src, sc.opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cols, closures := tickAllocs(p), tickAllocs(closurePlan{p})
		if cols > closures {
			t.Errorf("%s: steady-state tick allocates %.1f times under the column plan, %.1f under the closure plan", name, cols, closures)
		}
	}
}
