package geom

import (
	"fmt"
	"math"
)

// Rect is a closed axis-aligned rectangle [Min.X, Max.X] × [Min.Y, Max.Y].
// Rectangles model the paper's (hyper)rectangle visibility and reachability
// constraints (§4.1) as well as partition owned regions (§3.2).
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

// Dist2 returns the squared distance from p to the rectangle (0 when p is
// inside): a visibility disc reaches a partition's region iff it is ≤ ρ².
func (r Rect) Dist2(p Vec) float64 {
	dx := axisDist(p.X, r.Min.X, r.Max.X)
	dy := axisDist(p.Y, r.Min.Y, r.Max.Y)
	return dx*dx + dy*dy
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
