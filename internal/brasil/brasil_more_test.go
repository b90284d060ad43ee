package brasil

import (
	"math"
	"strings"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/spatial"
)

// Additional language-surface coverage: cond(), %, boolean combinators,
// nested foreach, update-rule edge cases, and error positions.

func compileOK(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Compile(src, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runOne(t *testing.T, p *Program, init func(*agent.Agent)) *agent.Agent {
	t.Helper()
	a := agent.New(p.Schema(), 1)
	if init != nil {
		init(a)
	}
	e, err := engine.NewSequential(p, []*agent.Agent{a}, spatial.KindScan, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	return e.Agents()[0]
}

func TestCondBuiltin(t *testing.T) {
	p := compileOK(t, `
class F { public state float x : cond(x > 5, 100, x + 1);
  public state float y : y;
  public effect float e : sum;
  public void run() {} }`)
	a := runOne(t, p, func(a *agent.Agent) { a.State[0] = 3 })
	if a.State[0] != 4 {
		t.Errorf("cond false arm: x = %v, want 4", a.State[0])
	}
	a2 := runOne(t, p, func(a *agent.Agent) { a.State[0] = 7 })
	if a2.State[0] != 100 {
		t.Errorf("cond true arm: x = %v, want 100", a2.State[0])
	}
}

func TestModuloAndUnaryOps(t *testing.T) {
	p := compileOK(t, `
class F { public state float x : (x + 3) % 5;
  public state float y : -y;
  public effect float e : sum;
  public void run() {} }`)
	a := runOne(t, p, func(a *agent.Agent) {
		a.State[0] = 4
		a.State[1] = 2
	})
	if a.State[0] != 2 { // (4+3)%5
		t.Errorf("modulo: x = %v, want 2", a.State[0])
	}
	if a.State[1] != -2 {
		t.Errorf("negation: y = %v, want -2", a.State[1])
	}
}

func TestBooleanCombinators(t *testing.T) {
	// or-combined effect: any visible neighbor sets the flag.
	src := `
class F { public state float x : x; public state float y : y; #range[-5,5];
  public state float seen : crowded;
  public effect float crowded : or;
  public void run() {
    foreach (F p : Extent<F>) {
      if (p != this) {
        crowded <- 1;
      }
    }
  } }`
	p := compileOK(t, src)
	a := agent.New(p.Schema(), 1)
	b := agent.New(p.Schema(), 2)
	b.State[0] = 1 // within range of a
	lone := agent.New(p.Schema(), 3)
	lone.State[0] = 1000
	e, err := engine.NewSequential(p, []*agent.Agent{a, b, lone}, spatial.KindKDTree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	got := e.Agents()
	seenIdx := p.Schema().StateIndex("seen")
	if got[0].State[seenIdx] != 1 || got[1].State[seenIdx] != 1 {
		t.Error("neighbors did not set the or-flag")
	}
	if got[2].State[seenIdx] != 0 {
		t.Error("lone agent set the or-flag")
	}
}

func TestMinMaxCombinatorsInScript(t *testing.T) {
	src := `
class F { public state float x : x; public state float y : y; #range[-50,50];
  public state float nearest : closest;
  public effect float closest : min;
  public void run() {
    foreach (F p : Extent<F>) {
      if (p != this) {
        closest <- dist(this, p);
      }
    }
  } }`
	p := compileOK(t, src)
	a := agent.New(p.Schema(), 1)
	b := agent.New(p.Schema(), 2)
	b.State[0] = 3
	c := agent.New(p.Schema(), 3)
	c.State[0] = 10
	e, err := engine.NewSequential(p, []*agent.Agent{a, b, c}, spatial.KindKDTree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	ni := p.Schema().StateIndex("nearest")
	if got := e.Agents()[0].State[ni]; got != 3 {
		t.Errorf("min effect = %v, want 3", got)
	}
}

func TestNestedForeachCompilesAndRuns(t *testing.T) {
	// Count pairs of distinct visible neighbors (quadratic per agent) —
	// exercises the agent-variable slot stack.
	src := `
class F { public state float x : x; public state float y : y; #range[-50,50];
  public state float pairs : np;
  public effect float np : sum;
  public void run() {
    foreach (F p : Extent<F>) {
      foreach (F q : Extent<F>) {
        if (p != q) {
          if (p != this) {
            if (q != this) {
              np <- 1;
            }
          }
        }
      }
    }
  } }`
	p := compileOK(t, src)
	agents := make([]*agent.Agent, 4)
	for i := range agents {
		agents[i] = agent.New(p.Schema(), agent.ID(i+1))
		agents[i].State[0] = float64(i)
	}
	e, err := engine.NewSequential(p, agents, spatial.KindScan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	// 3 other agents → 3·2 ordered distinct pairs.
	pi := p.Schema().StateIndex("pairs")
	for _, a := range e.Agents() {
		if a.State[pi] != 6 {
			t.Errorf("agent %d pairs = %v, want 6", a.ID, a.State[pi])
		}
	}
}

// TestNestedForeachTighterInnerRadius pins probe re-entrancy: index
// selection gives the inner loop a tighter radius than the outer one, so
// the inner probe must not refill the row buffer the outer iteration is
// still walking. Checked against brute force on every index path the
// engines select between.
func TestNestedForeachTighterInnerRadius(t *testing.T) {
	src := `
class F { public state float x : x; public state float y : y; #range[-5,5];
  public state float got : np;
  public effect float np : sum;
  public void run() {
    foreach (F p : Extent<F>) {
      if (dist(this, p) < 3.5) {
        foreach (F q : Extent<F>) {
          if (dist(this, q) < 1.5) {
            np <- p.x;
          }
        }
      }
    }
  } }`
	p := compileOK(t, src)
	const n = 6
	// Agent i sits at x=i. For each of its outer neighbours p (|Δx| < 3.5)
	// it adds p.x once per inner neighbour q (|Δx| < 1.5).
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		for pi := 0; pi < n; pi++ {
			for qi := 0; qi < n; qi++ {
				if math.Abs(float64(i-pi)) < 3.5 && math.Abs(float64(i-qi)) < 1.5 {
					want[i] += float64(pi)
				}
			}
		}
	}
	for _, cfg := range []struct {
		name  string
		index spatial.Kind
	}{
		{"scan", spatial.KindScan},
		{"kd-cached", spatial.KindKDTree},
	} {
		agents := make([]*agent.Agent, n)
		for i := range agents {
			agents[i] = agent.New(p.Schema(), agent.ID(i+1))
			agents[i].State[0] = float64(i)
		}
		e, err := engine.NewSequential(p, agents, cfg.index, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunTicks(1); err != nil {
			t.Fatal(err)
		}
		gi := p.Schema().StateIndex("got")
		for i, a := range e.Agents() {
			if a.State[gi] != want[i] {
				t.Errorf("%s: agent at x=%d got %v, brute force says %v", cfg.name, i, a.State[gi], want[i])
			}
		}
	}
}

func TestLocalConstInsideLoop(t *testing.T) {
	src := `
class F { public state float x : x; public state float y : y; #range[-50,50];
  public state float acc : total;
  public effect float total : sum;
  public void run() {
    foreach (F p : Extent<F>) {
      if (p != this) {
        const float d2 = (x - p.x) * (x - p.x);
        total <- d2;
      }
    }
  } }`
	p := compileOK(t, src)
	a := agent.New(p.Schema(), 1)
	b := agent.New(p.Schema(), 2)
	b.State[0] = 3
	e, err := engine.NewSequential(p, []*agent.Agent{a, b}, spatial.KindScan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	ai := p.Schema().StateIndex("acc")
	if got := e.Agents()[0].State[ai]; got != 9 {
		t.Errorf("const-in-loop total = %v, want 9", got)
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	_, err := Compile(`
class F { public state float x : x; public state float y : y;
  public effect float e : sum;
  public void run() { e <- zig(); } }`, CompileOptions{})
	if err == nil {
		t.Fatal("unknown function accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "brasil:4:") {
		t.Errorf("error lacks position: %q", msg)
	}
}

// Distributed inversion: compile the same non-local script both ways and
// run both on the 4-worker engine; the inverted program must use a single
// reduce pass and agree with the two-pass original up to FP reassociation.
func TestInversionDistributedAgreement(t *testing.T) {
	orig, err := Compile(pushSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := Compile(pushSrc, CompileOptions{Invert: true})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(s *agent.Schema) []*agent.Agent {
		pop := make([]*agent.Agent, 60)
		for i := range pop {
			id := agent.ID(i + 1)
			rng := agent.NewRNG(31, 0, id)
			a := agent.New(s, id)
			a.State[0] = rng.Range(0, 25)
			a.State[1] = rng.Range(0, 25)
			a.State[2] = rng.Range(0.5, 1.5)
			pop[i] = a
		}
		return pop
	}
	e1, err := engine.NewDistributed(orig, mk(orig.Schema()), engine.Options{
		Workers: 4, Index: spatial.KindKDTree, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := engine.NewDistributed(inv, mk(inv.Schema()), engine.Options{
		Workers: 4, Index: spatial.KindKDTree, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 10
	if err := e1.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	if err := e2.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	a, b := e1.Agents(), e2.Agents()
	if len(a) != len(b) {
		t.Fatal("sizes differ")
	}
	for i := range a {
		for j := range a[i].State {
			d := a[i].State[j] - b[i].State[j]
			if d > 1e-9 || d < -1e-9 {
				t.Fatalf("agent %d state[%d] differs by %g", a[i].ID, j, d)
			}
		}
	}
}

func TestDescribeAndProgramAccessors(t *testing.T) {
	p := compileOK(t, fishSrc)
	if p.Checked() == nil {
		t.Error("Checked nil")
	}
	if p.Inverted() {
		t.Error("fish marked inverted")
	}
	d := p.Checked().Describe()
	if !strings.Contains(d, "visibility 10") {
		t.Errorf("Describe = %q", d)
	}
}
