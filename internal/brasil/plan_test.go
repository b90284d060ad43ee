package brasil

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/spatial"
)

// nestedSrc nests one range probe inside another, so two foreach loops
// iterate at once: the column plan's fallback case.
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

// closurePlan runs a Program's query phase under its closure plan alone
// (queryClosures) instead of its column plan.
type closurePlan struct{ p *Program }

func (c closurePlan) Schema() *agent.Schema                         { return c.p.Schema() }
func (c closurePlan) Update(self *agent.Agent, u *engine.UpdateCtx) { c.p.Update(self, u) }
func (c closurePlan) HasNonLocalEffects() bool                      { return c.p.HasNonLocalEffects() }

func (c closurePlan) Query(env *engine.Cols, _ int32) {
	e := env.Env()
	c.p.queryClosures(e.Self(), e)
}

// planScript is a script the column plan is checked on.
type planScript struct {
	src    string
	opt    CompileOptions
	plans  int // outermost loops the column plan runs
	closes int // outermost loops that keep the closure plan
}

// planScripts returns the scripts of the column-plan oracle: the benchmark's
// avoidance script, the fish, push (inverted and not) and nested test
// scripts, the quickstart example's script and testdata/plan/*.brasil.
func planScripts(t testing.TB) map[string]planScript {
	t.Helper()
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	scripts := map[string]planScript{
		"avoid":         {src: read("../../bench/testdata/avoid.brasil"), plans: 1},
		"fish":          {src: fishSrc, plans: 1},
		"push":          {src: pushSrc, opt: CompileOptions{Invert: true}, plans: 1},
		"push-nonlocal": {src: pushSrc, closes: 1},
		"nested":        {src: nestedSrc, closes: 1},
		"quickstart":    {src: quickstartSrc(t), plans: 1},
	}
	files, err := filepath.Glob("testdata/plan/*.brasil")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata/plan scripts (%v)", err)
	}
	for _, f := range files {
		name := filepath.Base(f)
		s := planScript{src: read(f), plans: 1}
		switch name {
		case "twoloops.brasil":
			s.plans = 2
		case "mixed.brasil", "nonlocal.brasil":
			s.closes = 1
		}
		scripts[name] = s
	}
	return scripts
}

// quickstartSrc extracts the script constant of examples/quickstart.
func quickstartSrc(t testing.TB) string {
	t.Helper()
	f, err := goparser.ParseFile(token.NewFileSet(), "../../examples/quickstart/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if lit, ok := vs.Values[0].(*ast.BasicLit); ok && vs.Names[0].Name == "fishSrc" {
				src, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				return src
			}
		}
	}
	t.Fatal("examples/quickstart declares no fishSrc")
	return ""
}

// countPlans reports how many of the program's outermost foreach loops the
// column plan expresses, and how many keep the closure plan.
func countPlans(t testing.TB, p *Program) (plans, closes int) {
	t.Helper()
	var walk func([]Stmt)
	walk = func(ss []Stmt) {
		for _, s := range ss {
			switch st := s.(type) {
			case *If:
				walk(st.Then)
				walk(st.Else)
			case *Foreach:
				_, err := (&compiler{ck: p.checked, p: &Program{}}).planLoop(st)
				switch err {
				case nil:
					plans++
				case errFallback:
					closes++
				default:
					t.Fatal(err)
				}
			}
		}
	}
	walk(p.checked.Class.Run.Body)
	return plans, closes
}

// planPop places n agents uniformly over a span×span square, with every
// other state field uniform in [-0.5, 0.5).
func planPop(s *agent.Schema, n int, seed uint64, span float64) []*agent.Agent {
	pop := make([]*agent.Agent, n)
	for i := range pop {
		id := agent.ID(i + 1)
		rng := agent.NewRNG(seed, 0, id)
		a := agent.New(s, id)
		for f := range a.State {
			a.State[f] = rng.Range(-0.5, 0.5)
		}
		a.State[s.PosX] = rng.Range(0, span)
		a.State[s.PosY] = rng.Range(0, span)
		pop[i] = a
	}
	return pop
}

// planRun is what one run leaves to compare: the agents, the Visited
// gauge and every partition's balancer cost at every epoch barrier, where
// it restarts.
type planRun struct {
	agents  []*agent.Agent
	visited int64
	costs   []int64
}

func runPlan(t testing.TB, m engine.Model, pop []*agent.Agent, opts engine.Options, ticks int) planRun {
	t.Helper()
	var r planRun
	var e *engine.Distributed
	opts.EpochBarrier = func(uint64) error {
		for p := 0; p < opts.Workers; p++ {
			r.costs = append(r.costs, e.PartitionCost(p))
		}
		return nil
	}
	e, err := engine.NewDistributed(m, pop, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	r.agents, r.visited = e.Agents(), e.Visited()
	return r
}

// samePlanRun fails unless the two runs agree bit for bit, except that a
// NaN equals any NaN. Go fixes no NaN payload: on amd64 an add of two NaNs
// keeps whichever operand the compiler happened to put first, and the two
// plans' code orders the operands differently. No BRASIL operation reads a
// payload (every comparison with a NaN is false, every test of one true),
// so the payload never reaches a number that is not a NaN.
func samePlanRun(t testing.TB, what string, want, got planRun) {
	t.Helper()
	if len(want.agents) != len(got.agents) {
		t.Fatalf("%s: %d agents under the closure plan, %d under the column plan", what, len(want.agents), len(got.agents))
	}
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
				return false
			}
		}
		return true
	}
	for i, a := range want.agents {
		b := got.agents[i]
		if a.ID != b.ID || a.Dead != b.Dead || !same(a.State, b.State) || !same(a.Effect, b.Effect) {
			t.Fatalf("%s: agent %d differs:\n  closure plan: %v\n  column plan:  %v", what, a.ID, a, b)
		}
	}
	if want.visited != got.visited {
		t.Errorf("%s: Visited %d under the closure plan, %d under the column plan", what, want.visited, got.visited)
	}
	if !slices.Equal(want.costs, got.costs) {
		t.Errorf("%s: partition costs by epoch %v under the closure plan, %v under the column plan", what, want.costs, got.costs)
	}
}

// TestColumnPlanMatchesClosures is the column plan's oracle: every script
// runs twice through the partitioned engine, once as is (the column plan)
// and once behind closurePlan, at 1, 2 and 8 workers with and without load
// balancing. State, the Visited gauge and every partition's cost must match
// bit for bit.
func TestColumnPlanMatchesClosures(t *testing.T) {
	scripts := planScripts(t)
	names := make([]string, 0, len(scripts))
	for name := range scripts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sc := scripts[name]
		t.Run(name, func(t *testing.T) {
			p, err := Compile(sc.src, sc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if plans, closes := countPlans(t, p); plans != sc.plans || closes != sc.closes {
				t.Fatalf("%d column-plan loops and %d closure-plan loops, want %d and %d", plans, closes, sc.plans, sc.closes)
			}
			span := 20.0
			if p.Schema().Visibility == 0 {
				span = 12
			}
			for _, workers := range []int{1, 2, 8} {
				for _, lb := range []bool{false, true} {
					opts := engine.Options{
						Workers: workers, Index: spatial.KindKDTree, Seed: 5,
						EpochTicks: 5, LoadBalance: lb,
					}
					pop := planPop(p.Schema(), 120, 9, span)
					want := runPlan(t, closurePlan{p}, clonePop(pop), opts, 12)
					got := runPlan(t, p, pop, opts, 12)
					if len(want.costs) == 0 {
						t.Fatal("no epoch barrier reported a cost")
					}
					samePlanRun(t, "workers "+strconv.Itoa(workers)+" lb "+strconv.FormatBool(lb), want, got)
				}
			}
		})
	}
}

func clonePop(pop []*agent.Agent) []*agent.Agent {
	out := make([]*agent.Agent, len(pop))
	for i, a := range pop {
		out[i] = a.Clone()
	}
	return out
}

// FuzzColumnPlan checks the column plan against the closure plan on
// arbitrary sources: a source that compiles, local or not, runs 3 ticks on
// 40 agents both ways and must agree bit for bit. A compile error is fine;
// a panic is not. Loops nested deeper than two are skipped, as
// their cost grows with the power of the population.
func FuzzColumnPlan(f *testing.F) {
	for _, sc := range planScripts(f) {
		f.Add(sc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Compile(src, CompileOptions{})
		if err != nil || p.checked.NAgents > 2 {
			return
		}
		opts := engine.Options{Workers: 2, Index: spatial.KindKDTree, Seed: 1}
		pop := planPop(p.Schema(), 40, 3, 10)
		want := runPlan(t, closurePlan{p}, clonePop(pop), opts, 3)
		got := runPlan(t, p, pop, opts, 3)
		samePlanRun(t, "fuzzed source", want, got)
	})
}
