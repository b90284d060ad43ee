package agent

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/bigreddata/brace/internal/geom"
)

func fishSchema(t testing.TB) *Schema {
	t.Helper()
	s := NewSchema("Fish")
	s.AddState("x", true)
	s.AddState("y", true)
	s.AddState("vx", true)
	s.AddState("vy", true)
	s.AddEffect("avoidx", false, Sum)
	s.AddEffect("avoidy", false, Sum)
	s.AddEffect("count", false, Sum)
	s.SetPosition("x", "y").SetVisibility(10).SetReach(1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := fishSchema(t)
	if s.NumState() != 4 || s.NumEffect() != 3 {
		t.Fatalf("NumState/NumEffect = %d/%d", s.NumState(), s.NumEffect())
	}
	if s.StateIndex("vx") != 2 {
		t.Errorf("StateIndex(vx) = %d", s.StateIndex("vx"))
	}
	if s.EffectIndex("count") != 2 {
		t.Errorf("EffectIndex(count) = %d", s.EffectIndex("count"))
	}
	f, ok := s.FieldByName("avoidy")
	if !ok || f.Kind != Effect || f.Comb.Name() != "sum" {
		t.Errorf("FieldByName(avoidy) = %+v ok=%v", f, ok)
	}
	if _, ok := s.FieldByName("nope"); ok {
		t.Error("FieldByName found missing field")
	}
	if s.EffectCombinator(0).Name() != "sum" {
		t.Error("EffectCombinator(0)")
	}
}

func TestSchemaValidate(t *testing.T) {
	s := NewSchema("Empty")
	if err := s.Validate(); err == nil {
		t.Error("schema without position should not validate")
	}
	s.AddState("x", true)
	s.AddState("y", true)
	s.SetPosition("x", "y")
	if err := s.Validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

func TestSchemaPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	s := fishSchema(t)
	mustPanic("duplicate field", func() { s.AddState("x", true) })
	mustPanic("nil combinator", func() { s.AddEffect("bad", true, nil) })
	mustPanic("missing state index", func() { s.StateIndex("avoidx") })
	mustPanic("missing effect index", func() { s.EffectIndex("x") })
	mustPanic("position on effect", func() { s.SetPosition("avoidx", "y") })
}

func TestAgentPosClone(t *testing.T) {
	s := fishSchema(t)
	a := New(s, 42)
	a.SetPos(s, geom.V(3, 4))
	if a.Pos(s) != geom.V(3, 4) {
		t.Errorf("Pos = %v", a.Pos(s))
	}
	a.Effect[0] = 5
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.State[0] = 99
	if a.State[0] == 99 {
		t.Error("clone shares state storage")
	}
}

func TestAgentEqual(t *testing.T) {
	s := fishSchema(t)
	a, b := New(s, 1), New(s, 1)
	if !a.Equal(b) {
		t.Error("fresh identical agents unequal")
	}
	b.Dead = true
	if a.Equal(b) {
		t.Error("dead flag ignored")
	}
	b.Dead = false
	b.State[3] = 1e-300
	if a.Equal(b) {
		t.Error("state difference ignored")
	}
}

func TestResetEffects(t *testing.T) {
	s := NewSchema("M")
	s.AddState("x", true)
	s.AddState("y", true)
	s.SetPosition("x", "y")
	s.AddEffect("a", true, Sum)
	s.AddEffect("b", true, Min)
	s.AddEffect("c", true, Max)
	s.AddEffect("d", true, Mul)
	eff := []float64{9, 9, 9, 9}
	s.ResetEffects(eff)
	want := []float64{0, math.Inf(1), math.Inf(-1), 1}
	for i := range want {
		if eff[i] != want[i] {
			t.Errorf("ResetEffects[%d] = %v, want %v", i, eff[i], want[i])
		}
	}
}

func TestCombineEffects(t *testing.T) {
	s := NewSchema("M")
	s.AddState("x", true)
	s.AddState("y", true)
	s.SetPosition("x", "y")
	s.AddEffect("sum", true, Sum)
	s.AddEffect("min", true, Min)
	dst := []float64{1, 5}
	src := []float64{2, 3}
	CombineEffects(s, dst, src)
	if dst[0] != 3 || dst[1] != 3 {
		t.Errorf("CombineEffects = %v", dst)
	}
}

func TestVisibleRegion(t *testing.T) {
	s := fishSchema(t)
	vr := s.VisibleRegion(geom.V(0, 0))
	if vr != geom.R(-10, -10, 10, 10) {
		t.Errorf("VisibleRegion = %v", vr)
	}
	s.SetVisibility(0)
	if s.VisibleRegion(geom.V(0, 0)).Dist2(geom.V(1e12, -1e12)) != 0 {
		t.Error("unbounded visibility should cover the plane")
	}
}

func TestCombinatorByName(t *testing.T) {
	for _, name := range []string{"sum", "min", "max", "mul", "or", "and", "count"} {
		if _, err := CombinatorByName(name); err != nil {
			t.Errorf("CombinatorByName(%q): %v", name, err)
		}
	}
	if _, err := CombinatorByName("median"); err == nil {
		t.Error("median should be rejected (not order-independent decomposable)")
	}
}

// Property test: every builtin combinator satisfies the algebraic laws the
// map-reduce-reduce aggregation depends on.
func TestCombinatorLawsQuick(t *testing.T) {
	combs := []Combinator{Sum, Min, Max, Or, And}
	f := func(a, b, c float64) bool {
		vals := []float64{a, b, c, 0, 1, -1}
		for _, cb := range combs {
			if err := CheckLaws(cb, vals); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// Mul is checked on a bounded domain: float multiplication loses exact
	// associativity under overflow, which is outside simulation use.
	if err := CheckLaws(Mul, []float64{0.5, -2, 1, 3, 0}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterministicByKey(t *testing.T) {
	a := NewRNG(7, 3, 99)
	b := NewRNG(7, 3, 99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same key produced different streams")
		}
	}
	c := NewRNG(7, 4, 99)
	if a.Uint64() == c.Uint64() {
		t.Error("different tick should change the stream (very likely)")
	}
	d := NewRNG(7, 3, 100)
	e := NewRNG(7, 3, 99)
	if d.Uint64() == e.Uint64() {
		t.Error("different agent should change the stream (very likely)")
	}
}

func TestRNGFloat64Bounds(t *testing.T) {
	r := NewRNG(1, 1, 1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGRangeAndIntn(t *testing.T) {
	r := NewRNG(2, 2, 2)
	for i := 0; i < 1000; i++ {
		v := r.Range(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
		n := r.Intn(7)
		if n < 0 || n >= 7 {
			t.Fatalf("Intn out of bounds: %d", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(3, 3, 3)
	const n = 100000
	var mean float64
	for i := 0; i < n; i++ {
		mean += r.Float64()
	}
	mean /= n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(4, 4, 4)
	const n = 100000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestHashIDProperties(t *testing.T) {
	seen := make(map[ID]bool)
	for tick := uint64(0); tick < 50; tick++ {
		for seq := 0; seq < 20; seq++ {
			id := HashID(123, tick, seq)
			if id < 1<<63 {
				t.Fatalf("HashID %d missing high bit", id)
			}
			if seen[id] {
				t.Fatalf("HashID collision at tick=%d seq=%d", tick, seq)
			}
			seen[id] = true
		}
	}
	if HashID(1, 1, 1) != HashID(1, 1, 1) {
		t.Error("HashID not deterministic")
	}
}

func TestPopulationSortCloneEqual(t *testing.T) {
	s := fishSchema(t)
	p := Population{New(s, 3), New(s, 1), New(s, 2)}
	sort.Sort(p)
	if p[0].ID != 1 || p[2].ID != 3 {
		t.Errorf("sort order: %v %v %v", p[0].ID, p[1].ID, p[2].ID)
	}
	q := p.Clone()
	if !p.Equal(q) {
		t.Error("clone unequal")
	}
	q[1].State[0] = 42
	if p.Equal(q) {
		t.Error("Equal ignored state change")
	}
	if p.Equal(q[:2]) {
		t.Error("Equal ignored length change")
	}
}

func TestSchemaByteSize(t *testing.T) {
	s := fishSchema(t)
	if got := s.ByteSize(); got != 8+8*(4+3) {
		t.Errorf("ByteSize = %d", got)
	}
}

func TestFieldKindString(t *testing.T) {
	if State.String() != "state" || Effect.String() != "effect" {
		t.Error("FieldKind.String broken")
	}
}
