package brasil

import (
	"math"
	"strings"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/spatial"
)

// fishSrc is the Fig. 2 fish script adapted to this dialect: fish repel
// each other within the tagged range.
const fishSrc = `
// Simple fish behavior, after Fig. 2 of the paper.
class Fish {
  public state float x : x + vx; #range[-10,10];
  public state float y : y + vy; #range[-10,10];
  public state float vx : 0.5 * vx + avoidx / max(count, 1);
  public state float vy : 0.5 * vy + avoidy / max(count, 1);
  private effect float avoidx : sum;
  private effect float avoidy : sum;
  private effect int count : sum;

  /* query phase */
  public void run() {
    foreach (Fish p : Extent<Fish>) {
      if (p != this) {
        avoidx <- (x - p.x) / (dist(this, p) + 0.01);
        avoidy <- (y - p.y) / (dist(this, p) + 0.01);
        count <- 1;
      }
    }
  }
}
`

// pushSrc has a non-local assignment (the inversion target).
const pushSrc = `
class P {
  public state float x : x + pushx * 0.1;
  public state float y : y + pushy * 0.1;
  public state float m : m;
  public effect float pushx : sum;
  public effect float pushy : sum;
  public void run() {
    foreach (P p : Extent<P>) {
      if (p != this) {
        if (dist(this, p) < 3) {
          p.pushx <- (p.x - x) * m;
          p.pushy <- (p.y - y) * m;
        }
      }
    }
  }
}
`

func TestLexerBasics(t *testing.T) {
	toks, err := Lex("class F { public state float x : 1.5e2; #range[-1,1]; }")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		if tok.Kind == TokEOF {
			break
		}
		kinds = append(kinds, tok.Text)
	}
	want := []string{"class", "F", "{", "public", "state", "float", "x", ":",
		"1.5e2", ";", "#range", "[", "-", "1", ",", "1", "]", ";", "}"}
	if len(kinds) != len(want) {
		t.Fatalf("tokens = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, kinds[i], want[i])
		}
	}
}

func TestLexerComments(t *testing.T) {
	toks, err := Lex("a // line\n /* block\nmore */ b")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Fatalf("tokens = %v", toks)
	}
	if _, err := Lex("/* unterminated"); err == nil {
		t.Error("unterminated comment accepted")
	}
	if _, err := Lex("a $ b"); err == nil {
		t.Error("bad character accepted")
	}
	if _, err := Lex("a # b"); err == nil {
		t.Error("stray # accepted")
	}
}

func TestLexerOperators(t *testing.T) {
	toks, err := Lex("a <- b <= c != d && e")
	if err != nil {
		t.Fatal(err)
	}
	ops := []string{}
	for _, tok := range toks {
		if tok.Kind == TokPunct {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"<-", "<=", "!=", "&&"}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v", ops)
		}
	}
}

func TestParseFish(t *testing.T) {
	c, err := Parse(fishSrc)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "Fish" {
		t.Errorf("class name %q", c.Name)
	}
	if len(c.Fields) != 7 {
		t.Fatalf("fields = %d", len(c.Fields))
	}
	if c.Fields[0].Range == nil || c.Fields[0].Range.Lo != -10 || c.Fields[0].Range.Hi != 10 {
		t.Errorf("range tag = %+v", c.Fields[0].Range)
	}
	if c.Fields[4].IsState || c.Fields[4].Comb != "sum" {
		t.Errorf("effect decl = %+v", c.Fields[4])
	}
	if c.Run == nil || len(c.Run.Body) != 1 {
		t.Fatal("run body missing")
	}
	fe, ok := c.Run.Body[0].(*Foreach)
	if !ok {
		t.Fatalf("body[0] = %T", c.Run.Body[0])
	}
	if fe.VarName != "p" || fe.VarType != "Fish" {
		t.Errorf("foreach = %+v", fe)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"class F {",                             // unterminated
		"class F { public state float x : 1; }", // no run, no y
		"class F { public void walk() {} public void run() {} }",  // extra method: walk
		"class F { public state float x 1; }",                     // missing colon
		"class F { void run() { foreach (G p : Extent<F>) {} } }", // extent mismatch
		"class F { void run() { x <- ; } }",                       // missing expr
		"class F { public state float x : #range[2,1]; }",         // inverted range + missing rule
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted invalid source: %s", src)
		}
	}
}

func TestSemaErrors(t *testing.T) {
	cases := map[string]string{
		"missing position fields": `
class F { public state float a : a;
  public void run() {} }`,
		"unknown combinator": `
class F { public state float x : x; public state float y : y;
  public effect float e : median;
  public void run() {} }`,
		"effect read inside foreach": `
class F { public state float x : x; public state float y : y;
  public effect float e : sum;
  public void run() { foreach (F p : Extent<F>) { e <- e + 1; } } }`,
		"rand in query": `
class F { public state float x : x; public state float y : y;
  public effect float e : sum;
  public void run() { e <- rand(); } }`,
		"read another agent's effect": `
class F { public state float x : x; public state float y : y;
  public effect float e : sum;
  public void run() { foreach (F p : Extent<F>) { e <- p.e; } } }`,
		"assign to state": `
class F { public state float x : x; public state float y : y;
  public void run() { x <- 1; } }`,
		"agent compared to number": `
class F { public state float x : x; public state float y : y;
  public effect float e : sum;
  public void run() { foreach (F p : Extent<F>) { if (p == 1) { e <- 1; } } } }`,
		"unknown function": `
class F { public state float x : x; public state float y : y;
  public effect float e : sum;
  public void run() { e <- frob(1); } }`,
		"update rule uses agents": `
class F { public state float x : this.x; public state float y : y;
  public void run() {} }`,
		"undefined name": `
class F { public state float x : x; public state float y : y;
  public effect float e : sum;
  public void run() { e <- zap; } }`,
		"nonlocal plus effect read": `
class F { public state float x : x; public state float y : y;
  public effect float e : sum;
  public void run() {
    foreach (F p : Extent<F>) { p.e <- 1; }
    e <- e + 1;
  } }`,
	}
	for name, src := range cases {
		cl, err := Parse(src)
		if err != nil {
			continue // parse-level rejection also counts
		}
		if _, err := Check(cl); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckedMetadata(t *testing.T) {
	cl, err := Parse(fishSrc)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := Check(cl)
	if err != nil {
		t.Fatal(err)
	}
	if ck.HasNonLocal {
		t.Error("fish marked non-local")
	}
	if ck.Visibility != 10 || ck.Reach != 10 {
		t.Errorf("vis/reach = %g/%g", ck.Visibility, ck.Reach)
	}
	if len(ck.StateIdx) != 4 || len(ck.EffectIdx) != 3 {
		t.Errorf("field counts = %d/%d", len(ck.StateIdx), len(ck.EffectIdx))
	}
	if !strings.Contains(ck.Describe(), "class Fish") {
		t.Error("Describe format")
	}

	cl2, err := Parse(pushSrc)
	if err != nil {
		t.Fatal(err)
	}
	ck2, err := Check(cl2)
	if err != nil {
		t.Fatal(err)
	}
	if !ck2.HasNonLocal {
		t.Error("push not marked non-local")
	}
}

// handFish mirrors fishSrc exactly in Go, validating the compiler against
// a hand-coded model (the parity claim of §5.2).
type handFish struct {
	s             *agent.Schema
	x, y, vx, vy  int
	avx, avy, cnt int
}

func newHandFish() *handFish {
	m := &handFish{}
	s := agent.NewSchema("Fish")
	m.s = s
	m.x = s.AddState("x", true)
	m.y = s.AddState("y", true)
	m.vx = s.AddState("vx", true)
	m.vy = s.AddState("vy", true)
	m.avx = s.AddEffect("avoidx", false, agent.Sum)
	m.avy = s.AddEffect("avoidy", false, agent.Sum)
	m.cnt = s.AddEffect("count", false, agent.Sum)
	s.SetPosition("x", "y").SetVisibility(10).SetReach(10)
	return m
}

func (m *handFish) Schema() *agent.Schema { return m.s }

func (m *handFish) Query(self *agent.Agent, env engine.Env) {
	env.ForEachVisible(func(p *agent.Agent) {
		if p.ID == self.ID {
			return
		}
		d := math.Hypot(self.State[m.x]-p.State[m.x], self.State[m.y]-p.State[m.y])
		env.Assign(self, m.avx, (self.State[m.x]-p.State[m.x])/(d+0.01))
		env.Assign(self, m.avy, (self.State[m.y]-p.State[m.y])/(d+0.01))
		env.Assign(self, m.cnt, 1)
	})
}

func (m *handFish) Update(self *agent.Agent, u *engine.UpdateCtx) {
	nx := self.State[m.x] + self.State[m.vx]
	ny := self.State[m.y] + self.State[m.vy]
	nvx := 0.5*self.State[m.vx] + self.Effect[m.avx]/math.Max(self.Effect[m.cnt], 1)
	nvy := 0.5*self.State[m.vy] + self.Effect[m.avy]/math.Max(self.Effect[m.cnt], 1)
	// #range crop on x,y (±10 — here never binding since |v| stays small).
	self.State[m.x] = nx
	self.State[m.y] = ny
	self.State[m.vx] = nvx
	self.State[m.vy] = nvy
}

func seedPop(s *agent.Schema, n int, seed uint64) []*agent.Agent {
	pop := make([]*agent.Agent, n)
	for i := range pop {
		id := agent.ID(i + 1)
		rng := agent.NewRNG(seed, 0, id)
		a := agent.New(s, id)
		a.State[0] = rng.Range(0, 40)
		a.State[1] = rng.Range(0, 40)
		a.State[2] = rng.Range(-0.5, 0.5)
		a.State[3] = rng.Range(-0.5, 0.5)
		pop[i] = a
	}
	return pop
}

func TestCompiledFishMatchesHandCoded(t *testing.T) {
	prog, err := Compile(fishSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.HasNonLocalEffects() {
		t.Fatal("fish program claims non-local effects")
	}
	hand := newHandFish()

	popA := seedPop(prog.Schema(), 60, 5)
	popB := seedPop(hand.Schema(), 60, 5)

	ea, err := engine.NewDistributed(prog, popA, engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	eb, err := engine.NewDistributed(hand, popB, engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 10
	if err := ea.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	if err := eb.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	a, b := ea.Agents(), eb.Agents()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("compiled vs hand-coded diverged at agent %d:\n%v\n%v", a[i].ID, a[i], b[i])
		}
	}
}

func TestCompiledProgramOnDistributedEngine(t *testing.T) {
	prog, err := Compile(fishSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pop := seedPop(prog.Schema(), 80, 6)
	seqPop := make([]*agent.Agent, len(pop))
	for i, a := range pop {
		seqPop[i] = a.Clone()
	}
	dist, err := engine.NewDistributed(prog, pop, engine.Options{
		Workers: 4, Index: spatial.KindKDTree, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := engine.NewDistributed(prog, seqPop, engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := dist.RunTicks(8); err != nil {
		t.Fatal(err)
	}
	if err := seq.RunTicks(8); err != nil {
		t.Fatal(err)
	}
	a, b := seq.Agents(), dist.Agents()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("distributed BRASIL run diverged at agent %d", a[i].ID)
		}
	}
}

func TestEffectInversionExactEquivalence(t *testing.T) {
	orig, err := Compile(pushSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := Compile(pushSrc, CompileOptions{Invert: true})
	if err != nil {
		t.Fatal(err)
	}
	if !orig.HasNonLocalEffects() {
		t.Fatal("original should be non-local")
	}
	if inv.HasNonLocalEffects() || !inv.Inverted() {
		t.Fatal("inverted program should be local")
	}

	mkpop := func(s *agent.Schema) []*agent.Agent {
		pop := make([]*agent.Agent, 50)
		for i := range pop {
			id := agent.ID(i + 1)
			rng := agent.NewRNG(11, 0, id)
			a := agent.New(s, id)
			a.State[0] = rng.Range(0, 20)
			a.State[1] = rng.Range(0, 20)
			a.State[2] = rng.Range(0.5, 1.5) // mass m
			pop[i] = a
		}
		return pop
	}
	ea, err := engine.NewDistributed(orig, mkpop(orig.Schema()), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	eb, err := engine.NewDistributed(inv, mkpop(inv.Schema()), engine.Options{Workers: 1, Index: spatial.KindKDTree, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 12
	if err := ea.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	if err := eb.RunTicks(ticks); err != nil {
		t.Fatal(err)
	}
	a, b := ea.Agents(), eb.Agents()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("inversion changed semantics at agent %d:\n%v\n%v", a[i].ID, a[i], b[i])
		}
	}
}

func TestInversionRejectsNonInvertible(t *testing.T) {
	src := `
class F { public state float x : x; public state float y : y;
  public effect float e : sum;
  public void run() {
    const float k = x * 2;
    foreach (F p : Extent<F>) { p.e <- k; }
  } }`
	if _, err := Compile(src, CompileOptions{Invert: true}); err == nil {
		t.Error("inverted a script whose assignment depends on an outer local")
	}
	// Without inversion it still compiles (two-reduce dataflow).
	if _, err := Compile(src, CompileOptions{}); err != nil {
		t.Errorf("plain compile failed: %v", err)
	}
}

func TestIndexSelection(t *testing.T) {
	src := `
class F { public state float x : x; public state float y : y; #range[-50,50];
  public effect float near : sum;
  public void run() {
    foreach (F p : Extent<F>) {
      if (dist(this, p) < 3) {
        near <- 1;
      }
    }
  } }`
	cl, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := Check(cl)
	if err != nil {
		t.Fatal(err)
	}
	selectIndexes(ck)
	fe := ck.Class.Run.Body[0].(*Foreach)
	if fe.Radius == nil {
		t.Fatal("distance guard not recognized")
	}
	if n, ok := fe.Radius.(*Num); !ok || n.Val != 3 {
		t.Fatalf("radius = %#v", fe.Radius)
	}

	// Optimized and unoptimized programs agree exactly. The unoptimized
	// twin is the same checked class compiled without selectIndexes.
	p1, err := Compile(src, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cl, err = Parse(src); err != nil {
		t.Fatal(err)
	}
	ck2, err := Check(cl)
	if err != nil {
		t.Fatal(err)
	}
	foldClass(ck2.Class)
	p2, err := compileChecked(ck2, false)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(s *agent.Schema) []*agent.Agent {
		pop := make([]*agent.Agent, 80)
		for i := range pop {
			id := agent.ID(i + 1)
			rng := agent.NewRNG(3, 0, id)
			a := agent.New(s, id)
			a.State[0] = rng.Range(0, 30)
			a.State[1] = rng.Range(0, 30)
			pop[i] = a
		}
		return pop
	}
	// The equality check runs against the KindScan reference; the
	// narrowing is measured on the rows each program's probes deliver,
	// which no index or cache state can change.
	counted := func(p *Program) (*engine.Distributed, *rowCounter) {
		m := &rowCounter{Model: p}
		e, err := engine.NewDistributed(m, mk(p.Schema()), engine.Options{
			Workers: 1, Index: spatial.KindKDTree, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e, m
	}
	e1, c1 := counted(p1)
	e2, c2 := counted(p2)
	ref, _ := engine.NewDistributed(p2, mk(p2.Schema()), engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 1})
	if err := ref.RunTicks(5); err != nil {
		t.Fatal(err)
	}
	if err := e1.RunTicks(5); err != nil {
		t.Fatal(err)
	}
	if err := e2.RunTicks(5); err != nil {
		t.Fatal(err)
	}
	a, b, r := e1.Agents(), e2.Agents(), ref.Agents()
	for i := range a {
		if !a[i].Equal(b[i]) || !a[i].Equal(r[i]) {
			t.Fatalf("index selection changed results at agent %d", a[i].ID)
		}
	}
	// And its probes must deliver far fewer rows.
	if v1, v2 := c1.rows, c2.rows; v1*2 >= v2 {
		t.Errorf("index selection delivered %d rows vs %d; expected >2x reduction", v1, v2)
	}
}

// rowCounter wraps a model and counts the rows its query phases' probes
// deliver, through either Env iteration method.
type rowCounter struct {
	engine.Model
	rows int64
}

func (m *rowCounter) Query(self *agent.Agent, env engine.Env) {
	m.Model.Query(self, countingEnv{env, &m.rows})
}

type countingEnv struct {
	engine.Env
	rows *int64
}

func (e countingEnv) ForEachVisible(fn func(*agent.Agent)) {
	e.Env.ForEachVisible(func(a *agent.Agent) { *e.rows++; fn(a) })
}

func (e countingEnv) Nearby(radius float64, fn func(*agent.Agent)) {
	e.Env.Nearby(radius, func(a *agent.Agent) { *e.rows++; fn(a) })
}

func TestIndexSelectionDoesNotFireOnLoopDependentRadius(t *testing.T) {
	src := `
class F { public state float x : x; public state float y : y;
  public state float r : r;
  public effect float near : sum;
  public void run() {
    foreach (F p : Extent<F>) {
      if (dist(this, p) < p.r) {
        near <- 1;
      }
    }
  } }`
	cl, _ := Parse(src)
	ck, err := Check(cl)
	if err != nil {
		t.Fatal(err)
	}
	selectIndexes(ck)
	if ck.Class.Run.Body[0].(*Foreach).Radius != nil {
		t.Error("radius depends on loop var; must not be indexed")
	}
}

func TestConstFolding(t *testing.T) {
	cases := map[string]float64{
		"1 + 2 * 3":           7,
		"abs(-4) + min(2,9)":  6,
		"(1 < 2) && (3 != 3)": 0,
		"pow(2, 10)":          1024,
		"-(-5)":               5,
		"!0":                  1,
	}
	for src, want := range cases {
		toks, err := Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		p := &parser{toks: toks}
		e, err := p.parseExpr()
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		folded := fold(e)
		n, ok := folded.(*Num)
		if !ok {
			t.Errorf("%s did not fold: %#v", src, folded)
			continue
		}
		if n.Val != want {
			t.Errorf("%s folded to %v, want %v", src, n.Val, want)
		}
	}
	// Identities.
	toks, _ := Lex("x * 1 + 0")
	p := &parser{toks: toks}
	e, _ := p.parseExpr()
	if r, ok := fold(e).(*Ref); !ok || r.Name != "x" {
		t.Errorf("x*1+0 did not simplify to x")
	}
	// rand() must not fold.
	toks, _ = Lex("rand() + 0")
	p = &parser{toks: toks}
	e, _ = p.parseExpr()
	if _, ok := fold(e).(*Num); ok {
		t.Error("rand() was folded")
	}
}

func TestRangeCropEnforced(t *testing.T) {
	src := `
class F { public state float x : x + 100; #range[-1,1];
  public state float y : y;
  public effect float e : sum;
  public void run() {} }`
	prog, err := Compile(src, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := agent.New(prog.Schema(), 1)
	e, err := engine.NewDistributed(prog, []*agent.Agent{a}, engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(3); err != nil {
		t.Fatal(err)
	}
	if got := e.Agents()[0].State[0]; got != 3 {
		t.Errorf("x = %v, want 3 (crop to +1 per tick)", got)
	}
}

func TestUpdateRuleSimultaneity(t *testing.T) {
	// Classic swap: x : y, y : x must exchange the values, not copy one.
	src := `
class F { public state float x : y;
  public state float y : x;
  public effect float e : sum;
  public void run() {} }`
	prog, err := Compile(src, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a := agent.New(prog.Schema(), 1)
	a.State[0] = 1
	a.State[1] = 2
	e, err := engine.NewDistributed(prog, []*agent.Agent{a}, engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunTicks(1); err != nil {
		t.Fatal(err)
	}
	got := e.Agents()[0]
	if got.State[0] != 2 || got.State[1] != 1 {
		t.Errorf("swap = (%v,%v), want (2,1)", got.State[0], got.State[1])
	}
}

func TestRandInUpdateRuleIsDeterministic(t *testing.T) {
	src := `
class F { public state float x : x + rand();
  public state float y : y;
  public effect float e : sum;
  public void run() {} }`
	run := func() float64 {
		prog, err := Compile(src, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		a := agent.New(prog.Schema(), 7)
		e, err := engine.NewDistributed(prog, []*agent.Agent{a}, engine.Options{Workers: 1, Index: spatial.KindScan, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunTicks(5); err != nil {
			t.Fatal(err)
		}
		return e.Agents()[0].State[0]
	}
	v1, v2 := run(), run()
	if v1 != v2 {
		t.Errorf("rand() streams diverged: %v vs %v", v1, v2)
	}
	if v1 <= 0 || v1 >= 5 {
		t.Errorf("x = %v out of (0,5)", v1)
	}
}
