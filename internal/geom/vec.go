// Package geom provides the low-level spatial types used throughout BRACE:
// 2-D vectors and axis-aligned rectangles. Behavioral simulations are
// "eminently spatial" (paper §2.1); every agent carries a location in a
// 2-D domain L and interacts only with agents inside its visible region.
//
// The package is deliberately small and allocation-free: vectors and
// rectangles are plain value types so they can live inside agent state
// without indirection.
package geom

import "math"

// Vec is a point or displacement in the 2-D simulation domain.
type Vec struct {
	X, Y float64
}

// V is shorthand for constructing a Vec.
func V(x, y float64) Vec { return Vec{X: x, Y: y} }

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by k.
func (v Vec) Scale(k float64) Vec { return Vec{v.X * k, v.Y * k} }

// Len returns the Euclidean length |v|.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// Len2 returns |v|² without the square root.
func (v Vec) Len2() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and w.
func (v Vec) Dist(w Vec) float64 { return v.Sub(w).Len() }

// Dist2 returns the squared Euclidean distance between v and w.
func (v Vec) Dist2(w Vec) float64 { return v.Sub(w).Len2() }

// Norm returns v scaled to unit length. The zero vector normalizes to
// itself so callers need not special-case stationary agents.
func (v Vec) Norm() Vec {
	l := v.Len()
	if l == 0 {
		return Vec{}
	}
	return v.Scale(1 / l)
}

// Clamp returns v with each coordinate clamped into r. It implements the
// reachability constraint cropping of BRASIL #range tags: "the update rule
// is guaranteed to crop any changes ... to at most one unit" (paper §4.1).
func (v Vec) Clamp(r Rect) Vec {
	return Vec{clamp(v.X, r.Min.X, r.Max.X), clamp(v.Y, r.Min.Y, r.Max.Y)}
}

// Rotate returns v rotated by the given angle in radians.
func (v Vec) Rotate(rad float64) Vec {
	s, c := math.Sincos(rad)
	return Vec{v.X*c - v.Y*s, v.X*s + v.Y*c}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
