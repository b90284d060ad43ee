package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// contains reports whether p lies inside the closed rectangle r.
func contains(r Rect, p Vec) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

func TestRectNormalization(t *testing.T) {
	r := R(5, 6, 1, 2)
	if r.Min != V(1, 2) || r.Max != V(5, 6) {
		t.Errorf("R did not normalize corners: %v", r)
	}
}

func TestRectDist2(t *testing.T) {
	r := R(0, 0, 10, 10)
	cases := []struct {
		p    Vec
		want float64
	}{
		{V(5, 5), 0},        // inside
		{V(13, 5), 9},       // right of
		{V(13, 14), 9 + 16}, // corner
		{V(5, -2), 4},       // below
	}
	for _, c := range cases {
		if got := r.Dist2(c.p); got != c.want {
			t.Errorf("Dist2(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectInfinite(t *testing.T) {
	inf := Infinite()
	f := func(x, y float64) bool {
		v := V(x, y)
		if !finite(v) {
			return true
		}
		return inf.Dist2(v) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectSquare(t *testing.T) {
	s := Square(V(1, 1), 2)
	if s != R(-1, -1, 3, 3) {
		t.Errorf("Square = %v", s)
	}
}

// Property: Dist2(p) == 0 iff p lies in the closed rectangle, for finite
// rectangles and points.
func TestRectDist2ZeroIffContains(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		r := R(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		p := V(rng.Float64()*12-1, rng.Float64()*12-1)
		if (r.Dist2(p) == 0) != contains(r, p) {
			t.Fatalf("Dist2/containment disagree: r=%v p=%v", r, p)
		}
	}
}

// A visibility disc reaches a rectangle iff Dist2 ≤ rad² — the test
// ReplicaTargets applies to every partition region.
func TestRectIntersectsCircle(t *testing.T) {
	r := R(0, 0, 10, 10)
	if r.Dist2(V(12, 5)) > 2*2 {
		t.Error("circle touching edge should intersect")
	}
	if r.Dist2(V(13, 5)) <= 2*2 {
		t.Error("circle at distance 3 radius 2 should not intersect")
	}
	if r.Dist2(V(5, 5)) > 0.1*0.1 {
		t.Error("circle inside should intersect")
	}
}

// Property: expanding a rectangle by the visibility radius (every point q
// with Dist2(q) ≤ rad²) covers the visibility disc of any point inside it
// — the replication-sufficiency fact the engine relies on.
func TestRectExpandCoversVisibility(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 500; i++ {
		r := R(0, 0, 10+rng.Float64()*10, 10+rng.Float64()*10)
		rad := rng.Float64() * 5
		p := V(rng.Float64()*r.Max.X, rng.Float64()*r.Max.Y) // p inside r
		q := p.Add(V(rad, 0).Rotate(rng.Float64() * 2 * math.Pi).Scale(rng.Float64()))
		if r.Dist2(q) > rad*rad*(1+1e-12) {
			t.Fatalf("q=%v visible from p=%v (rad %v) escapes expanded %v", q, p, rad, r)
		}
	}
}

func TestRectString(t *testing.T) {
	if s := R(0, 1, 2, 3).String(); s != "[0,2]x[1,3]" {
		t.Errorf("String = %q", s)
	}
}

func TestAxisDist(t *testing.T) {
	if axisDist(5, 0, 10) != 0 || axisDist(-3, 0, 10) != 3 || axisDist(14, 0, 10) != 4 {
		t.Error("axisDist broken")
	}
	_ = math.Pi // keep math imported even if constants change
}
