package geom

import (
	"fmt"
	"math"
)

// Rect is a closed axis-aligned rectangle [Min.X, Max.X] × [Min.Y, Max.Y].
// Rectangles model the paper's (hyper)rectangle visibility and reachability
// constraints (§4.1) as well as partition owned regions (§3.2, App. A).
type Rect struct {
	Min, Max Vec
}

// R constructs the rectangle spanning (x0,y0)-(x1,y1), normalizing the
// corner order so Min ≤ Max in both coordinates.
func R(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Vec{x0, y0}, Vec{x1, y1}}
}

// Square returns the axis-aligned square of half-width r centered at c.
// It is the rectangle circumscribing the disc of radius r, which is how a
// distance-bound visible region V R(l) is over-approximated for replication.
func Square(c Vec, r float64) Rect {
	return Rect{Vec{c.X - r, c.Y - r}, Vec{c.X + r, c.Y + r}}
}

// Infinite returns the rectangle covering the whole plane, used for
// unbounded visible regions ("the ocean is unbounded", §5.1).
func Infinite() Rect {
	return Rect{
		Vec{math.Inf(-1), math.Inf(-1)},
		Vec{math.Inf(1), math.Inf(1)},
	}
}

// Empty reports whether r contains no points (Min > Max on an axis).
func (r Rect) Empty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// W returns the width of r (Max.X − Min.X).
func (r Rect) W() float64 { return r.Max.X - r.Min.X }

// H returns the height of r (Max.Y − Min.Y).
func (r Rect) H() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r; an empty rectangle has zero area.
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.W() * r.H()
}

// Center returns the midpoint of r.
func (r Rect) Center() Vec { return Vec{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2} }

// Contains reports whether p lies inside the closed rectangle.
func (r Rect) Contains(p Vec) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.Empty() {
		return true
	}
	return r.Contains(s.Min) && r.Contains(s.Max)
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.Empty() || s.Empty() {
		return false
	}
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		Vec{math.Max(r.Min.X, s.Min.X), math.Max(r.Min.Y, s.Min.Y)},
		Vec{math.Min(r.Max.X, s.Max.X), math.Min(r.Max.Y, s.Max.Y)},
	}
	return out
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		Vec{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Vec{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Expand grows r by d on every side. The visible region of a partition p is
// its owned rectangle expanded by the agents' visibility radius:
// VR(p) = ∪_{l∈p} VR(l) (App. A). A negative d shrinks the rectangle.
func (r Rect) Expand(d float64) Rect {
	return Rect{Vec{r.Min.X - d, r.Min.Y - d}, Vec{r.Max.X + d, r.Max.Y + d}}
}

// Translate returns r shifted by v.
func (r Rect) Translate(v Vec) Rect {
	return Rect{r.Min.Add(v), r.Max.Add(v)}
}

// ClampPoint returns p moved to the closest point inside r.
func (r Rect) ClampPoint(p Vec) Vec { return p.Clamp(r) }

// Dist2 returns the squared distance from p to the rectangle (0 when p is
// inside): a visibility disc reaches a partition's region iff it is ≤ ρ².
func (r Rect) Dist2(p Vec) float64 {
	dx := axisDist(p.X, r.Min.X, r.Max.X)
	dy := axisDist(p.Y, r.Min.Y, r.Max.Y)
	return dx*dx + dy*dy
}

// IntersectsCircle reports whether the disc of radius rad centered at c
// intersects the rectangle.
func (r Rect) IntersectsCircle(c Vec, rad float64) bool {
	return r.Dist2(c) <= rad*rad
}

// SplitX cuts the rectangle at x into left and right parts.
func (r Rect) SplitX(x float64) (left, right Rect) {
	left = Rect{r.Min, Vec{x, r.Max.Y}}
	right = Rect{Vec{x, r.Min.Y}, r.Max}
	return left, right
}

// SplitY cuts the rectangle at y into bottom and top parts.
func (r Rect) SplitY(y float64) (bottom, top Rect) {
	bottom = Rect{r.Min, Vec{r.Max.X, y}}
	top = Rect{Vec{r.Min.X, y}, r.Max}
	return bottom, top
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.Min.X, r.Max.X, r.Min.Y, r.Max.Y)
}

func axisDist(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo - x
	case x > hi:
		return x - hi
	default:
		return 0
	}
}
