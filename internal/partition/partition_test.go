package partition

import (
	"math"
	"math/rand"
	"testing"

	"github.com/bigreddata/brace/internal/geom"
)

func TestStripsUniform(t *testing.T) {
	s := NewStrips(4, 0, 100)
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
	wantCuts := []float64{25, 50, 75}
	cuts := s.Cuts()
	for i, c := range wantCuts {
		if cuts[i] != c {
			t.Errorf("cut[%d] = %v, want %v", i, cuts[i], c)
		}
	}
	cases := []struct {
		x    float64
		want int
	}{
		{-1e9, 0}, {0, 0}, {24.9, 0},
		{25, 1}, // boundary belongs to the right strip
		{49, 1}, {50, 2}, {74, 2}, {75, 3}, {1e9, 3},
	}
	for _, c := range cases {
		if got := s.Locate(geom.V(c.x, 0)); got != c.want {
			t.Errorf("Locate(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

// Locate is the half-open [prev, c) rule at the extremes too: infinities,
// the largest finite magnitudes, points exactly on a cut and between cuts.
// Every x but +Inf lies in its owner's Region, which is open above.
func TestLocateEdges(t *testing.T) {
	s, err := NewStripsFromCuts([]float64{-1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		x    float64
		want int
	}{
		{math.Inf(-1), 0}, {-math.MaxFloat64, 0}, {-1.5, 0},
		{-1, 1}, {-0.5, 1}, {math.Nextafter(0, -1), 1},
		{0, 2}, {math.Copysign(0, -1), 2}, {0.5, 2},
		{1, 3}, {2, 3}, {math.MaxFloat64, 3}, {math.Inf(1), 3},
	} {
		got := s.Locate(geom.V(c.x, 0))
		if got != c.want {
			t.Errorf("Locate(%v) = %d, want %d", c.x, got, c.want)
		}
		if r := s.Region(got); !math.IsInf(c.x, 1) && !(r.Min.X <= c.x && c.x < r.Max.X) {
			t.Errorf("x = %v: owner %d's region [%v, %v) does not contain it", c.x, got, r.Min.X, r.Max.X)
		}
	}
}

func TestStripsRegionsCoverPlane(t *testing.T) {
	s := NewStrips(5, -10, 10)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := geom.V(rng.NormFloat64()*20, rng.NormFloat64()*20)
		owner := s.Locate(p)
		if s.Region(owner).Dist2(p) != 0 {
			t.Fatalf("own region %v does not contain %v", s.Region(owner), p)
		}
		// Exactly one region owns p — strips are half-open [lo, hi).
		owners := 0
		for q := 0; q < s.N(); q++ {
			r := s.Region(q)
			if p.X >= r.Min.X && p.X < r.Max.X || q == s.N()-1 && p.X >= r.Min.X {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("point %v owned by %d strips", p, owners)
		}
	}
}

func TestStripsSingle(t *testing.T) {
	s := NewStrips(1, 0, 0) // single strip allows degenerate domain
	if s.N() != 1 || s.Locate(geom.V(123, 4)) != 0 {
		t.Error("single strip should own everything")
	}
	if s.Region(0) != geom.Infinite() {
		t.Error("single strip region should be the plane")
	}
}

func TestStripsFromCuts(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		cuts []float64
		ok   bool
	}{
		{[]float64{1, 2, 3}, true},
		{nil, true},
		{[]float64{1, 1}, false},
		{[]float64{2, 1}, false},
		{[]float64{0, nan, 5}, false},
		{[]float64{nan}, false},
		{[]float64{inf}, false},
		{[]float64{-inf, 0}, false},
		{[]float64{0, inf}, false},
	}
	for _, c := range cases {
		s, err := NewStripsFromCuts(c.cuts)
		if (err == nil) != c.ok {
			t.Errorf("NewStripsFromCuts(%v): err = %v, want ok = %v", c.cuts, err, c.ok)
			continue
		}
		if c.ok && s.N() != len(c.cuts)+1 {
			t.Errorf("NewStripsFromCuts(%v).N() = %d", c.cuts, s.N())
		}
	}
}

func TestStripsPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero strips", func() { NewStrips(0, 0, 1) })
	mustPanic("empty domain", func() { NewStrips(2, 5, 5) })
}

func TestReplicaTargets(t *testing.T) {
	s := NewStrips(4, 0, 100) // cuts at 25, 50, 75
	// Agent at x=24 with visibility 5 must replicate to strips 0 and 1.
	got := ReplicaTargets(s, geom.V(24, 0), 5, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("ReplicaTargets(24, vis 5) = %v", got)
	}
	// Deep inside a strip: only the owner.
	got = ReplicaTargets(s, geom.V(60, 0), 5, nil)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("ReplicaTargets(60, vis 5) = %v", got)
	}
	// Huge visibility: all strips.
	got = ReplicaTargets(s, geom.V(60, 0), 1000, nil)
	if len(got) != 4 {
		t.Errorf("ReplicaTargets(60, vis 1000) = %v", got)
	}
	// Unbounded visibility: all strips.
	got = ReplicaTargets(s, geom.V(60, 0), 0, nil)
	if len(got) != 4 {
		t.Errorf("ReplicaTargets unbounded = %v", got)
	}
}

// Replication sufficiency: for any pair of agents within visibility range,
// the owner partition of each receives a replica of the other.
func TestReplicaTargetsSufficiency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewStrips(6, 0, 60)
	const vis = 4.0
	for i := 0; i < 2000; i++ {
		a := geom.V(rng.Float64()*70-5, rng.Float64()*10)
		b := geom.V(a.X+rng.Float64()*2*vis-vis, a.Y+rng.Float64()*2*vis-vis)
		if a.Dist(b) > vis {
			continue
		}
		ownerA := s.Locate(a)
		targetsB := ReplicaTargets(s, b, vis, nil)
		found := false
		for _, p := range targetsB {
			if p == ownerA {
				found = true
			}
		}
		if !found {
			t.Fatalf("b=%v (dist %v) not replicated to owner %d of a=%v; targets %v",
				b, a.Dist(b), ownerA, a, targetsB)
		}
	}
}

func TestBalancerEqualizesSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := NewStrips(4, 0, 100)
	// Skew: 90% of agents bunched in [0, 25) — strip 0.
	xs := make([]float64, 1000)
	for i := range xs {
		if i < 900 {
			xs[i] = rng.Float64() * 25
		} else {
			xs[i] = 25 + rng.Float64()*75
		}
	}
	b := DefaultBalancer()
	d := b.Plan(s, xs, nil)
	if !d.Apply {
		t.Fatalf("balancer refused an obviously beneficial move: %+v", d)
	}
	ns, err := NewStripsFromCuts(d.NewCuts)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]float64, ns.N())
	for _, x := range xs {
		loads[ns.Locate(geom.V(x, 0))]++
	}
	if imb := Imbalance(loads); imb > 1.2 {
		t.Errorf("post-balance imbalance = %v, want ≤ 1.2 (loads %v)", imb, loads)
	}
	if d.Moved == 0 || d.GainPerTick <= 0 {
		t.Errorf("decision looks wrong: %+v", d)
	}
}

func TestBalancerDeclinesBalancedLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewStrips(4, 0, 100)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	d := DefaultBalancer().Plan(s, xs, nil)
	if d.Apply {
		t.Errorf("balancer churned on near-uniform load: %+v", d)
	}
}

func TestBalancerUsesCostWeights(t *testing.T) {
	s := NewStrips(2, 0, 100)
	// Few agents on the left, but each 100× more expensive.
	xs := []float64{10, 20, 60, 65, 70, 75, 80, 85, 90, 95}
	costs := []float64{100, 100, 1, 1, 1, 1, 1, 1, 1, 1}
	d := DefaultBalancer().Plan(s, xs, costs)
	if !d.Apply {
		t.Fatalf("cost-weighted skew not detected: %+v", d)
	}
	ns, _ := NewStripsFromCuts(d.NewCuts)
	// The cut should move left of x=60 so the cheap agents share a strip.
	if ns.Cuts()[0] >= 60 {
		t.Errorf("cut = %v, expected < 60", ns.Cuts()[0])
	}
}

func TestBalancerPointMass(t *testing.T) {
	s := NewStrips(3, 0, 30)
	xs := []float64{10, 10, 10, 10}
	d := DefaultBalancer().Plan(s, xs, nil)
	// Proposed cuts must still be strictly increasing (validity), whatever
	// the Apply verdict.
	if _, err := NewStripsFromCuts(d.NewCuts); err != nil {
		t.Errorf("point-mass produced invalid cuts %v: %v", d.NewCuts, err)
	}
}

func TestBalancerEmptyAndSingle(t *testing.T) {
	s := NewStrips(3, 0, 30)
	d := DefaultBalancer().Plan(s, nil, nil)
	if d.Apply {
		t.Error("empty input should not trigger balancing")
	}
	s1 := NewStrips(1, 0, 0)
	d = DefaultBalancer().Plan(s1, []float64{1, 2, 3}, nil)
	if d.Apply {
		t.Error("single partition cannot be balanced")
	}
}

func TestBalancerMigrationCostVeto(t *testing.T) {
	s := NewStrips(2, 0, 100)
	xs := []float64{10, 20, 30, 40, 60, 70}
	b := Balancer{MigrateCostPerAgent: 1e9, HorizonTicks: 1, MinRelativeGain: 0}
	d := b.Plan(s, xs, nil)
	if d.Apply {
		t.Errorf("absurd migration cost should veto: %+v", d)
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance([]float64{1, 1, 1, 1}); got != 1 {
		t.Errorf("uniform imbalance = %v", got)
	}
	if got := Imbalance([]float64{4, 0, 0, 0}); got != 4 {
		t.Errorf("concentrated imbalance = %v", got)
	}
	if got := Imbalance(nil); got != 1 {
		t.Errorf("empty imbalance = %v", got)
	}
	if got := Imbalance([]float64{0, 0}); got != 1 {
		t.Errorf("zero-load imbalance = %v", got)
	}
}
