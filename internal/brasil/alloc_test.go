//go:build !race

// The race detector makes sync.Pool drop a quarter of its Puts at
// random, so an allocation count taken under it says nothing about the
// pooled frames.

package brasil

import (
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/geom"
)

// nestedSrc nests one range probe inside another, so two foreach loops
// iterate at once.
const nestedSrc = `
class N {
  public state float x : x;
  public state float y : y;
  public effect float near : sum;
  public void run() {
    foreach (N p : Extent<N>) {
      if (dist(this, p) < 2) {
        foreach (N q : Extent<N>) {
          if (dist(p, q) < 1) {
            near <- 1;
          }
        }
      }
    }
  }
}
`

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

// A compiled script's query phase allocates nothing in steady state: each
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
				p.Query(a, env)
			}
		}
		query() // fill the frame pool
		if n := testing.AllocsPerRun(50, query); n != 0 {
			t.Errorf("%s: %v allocations per %d query phases, want 0", name, n, len(env.agents))
		}
	}
}
