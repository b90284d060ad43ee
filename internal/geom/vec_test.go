package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func vecEq(a, b Vec) bool { return almostEq(a.X, b.X) && almostEq(a.Y, b.Y) }

// finite reports whether both coordinates of v are finite numbers.
func finite(v Vec) bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) && !math.IsNaN(v.Y) && !math.IsInf(v.Y, 0)
}

func TestVecBasicOps(t *testing.T) {
	a, b := V(1, 2), V(3, -4)
	if got := a.Add(b); got != V(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := b.Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
	if got := b.Len2(); got != 25 {
		t.Errorf("Len2 = %v", got)
	}
}

func TestVecDist(t *testing.T) {
	if d := V(0, 0).Dist(V(3, 4)); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := V(1, 1).Dist2(V(4, 5)); d != 25 {
		t.Errorf("Dist2 = %v, want 25", d)
	}
}

func TestVecNorm(t *testing.T) {
	n := V(3, 4).Norm()
	if !vecEq(n, V(0.6, 0.8)) {
		t.Errorf("Norm = %v", n)
	}
	if got := (Vec{}).Norm(); got != (Vec{}) {
		t.Errorf("Norm(0) = %v, want zero vector", got)
	}
}

func TestVecNormPropertyUnitLength(t *testing.T) {
	f := func(x, y float64) bool {
		v := V(x, y)
		if !finite(v) || v.Len() == 0 || math.IsInf(v.Len(), 0) {
			return true
		}
		n := v.Norm()
		// Extremely large inputs can overflow; skip those.
		if !finite(n) {
			return true
		}
		return almostEq(n.Len(), 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecAddCommutativeAssociative(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := V(ax, ay), V(bx, by), V(cx, cy)
		if a.Add(b) != b.Add(a) {
			return false
		}
		l, r := a.Add(b).Add(c), a.Add(b.Add(c))
		if !finite(l) || !finite(r) {
			return true // overflow to ±Inf is outside the algebraic domain
		}
		// Floating-point addition is only approximately associative; compare
		// with a tolerance scaled to the operand magnitudes.
		tol := 1e-9 * (1 + a.Len() + b.Len() + c.Len())
		return math.Abs(l.X-r.X) <= tol && math.Abs(l.Y-r.Y) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVecRotate(t *testing.T) {
	got := V(1, 0).Rotate(math.Pi / 2)
	if !vecEq(got, V(0, 1)) {
		t.Errorf("Rotate(π/2) = %v", got)
	}
	got = V(1, 0).Rotate(math.Pi)
	if !vecEq(got, V(-1, 0)) {
		t.Errorf("Rotate(π) = %v", got)
	}
}

func TestVecRotatePreservesLength(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		v := V(rng.NormFloat64(), rng.NormFloat64())
		a := rng.Float64() * 2 * math.Pi
		if !almostEq(v.Rotate(a).Len(), v.Len()) {
			t.Fatalf("rotation changed length of %v by angle %v", v, a)
		}
	}
}

func TestVecClamp(t *testing.T) {
	r := R(-1, -1, 1, 1)
	cases := []struct{ in, want Vec }{
		{V(0, 0), V(0, 0)},
		{V(2, 0), V(1, 0)},
		{V(-3, -9), V(-1, -1)},
		{V(0.5, 7), V(0.5, 1)},
	}
	for _, c := range cases {
		if got := c.in.Clamp(r); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVecClampAlwaysInside(t *testing.T) {
	r := R(-2, 3, 5, 9)
	f := func(x, y float64) bool {
		v := V(x, y)
		if !finite(v) {
			return true
		}
		return contains(r, v.Clamp(r))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
