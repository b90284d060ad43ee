// Package stats provides the statistical utilities used by the experiment
// harness: RMSPE goodness-of-fit (the measure of Table 2), labeled result
// series for the figure reproductions, and the shape checks their
// assertions use.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// RMSPE returns the Relative Mean Square Percentage Error between a
// reference series and a measured series:
//
//	RMSPE = sqrt( (1/n) Σ ((meas_i − ref_i)/ref_i)² )
//
// It is the goodness-of-fit measure used in the traffic simulation
// literature [9] and in Table 2 of the paper. Reference entries equal to
// zero are skipped (their relative error is undefined); if every entry is
// skipped or the series are empty, RMSPE returns an error.
func RMSPE(ref, meas []float64) (float64, error) {
	if len(ref) != len(meas) {
		return 0, fmt.Errorf("stats: RMSPE length mismatch %d vs %d", len(ref), len(meas))
	}
	var sum float64
	var n int
	for i := range ref {
		if ref[i] == 0 {
			continue
		}
		d := (meas[i] - ref[i]) / ref[i]
		sum += d * d
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("stats: RMSPE has no usable reference entries")
	}
	return math.Sqrt(sum / float64(n)), nil
}

// Series is one labeled curve of an experiment figure: x values with the
// measured y values, e.g. "BRACE - indexing" in Fig. 3.
type Series struct {
	Label string
	X, Y  []float64
}

// Add appends one (x, y) sample.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table formats one or more series sharing (approximately) the same x grid
// as an aligned text table, the format the experiment harness prints.
func Table(title, xName string, series ...*Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	// Collect the union of x values.
	xs := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.X {
			xs[x] = true
		}
	}
	grid := make([]float64, 0, len(xs))
	for x := range xs {
		grid = append(grid, x)
	}
	sort.Float64s(grid)
	fmt.Fprintf(&b, "%-14s", xName)
	for _, s := range series {
		fmt.Fprintf(&b, " %22s", s.Label)
	}
	b.WriteByte('\n')
	for _, x := range grid {
		fmt.Fprintf(&b, "%-14g", x)
		for _, s := range series {
			y, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(&b, " %22.4g", y)
			} else {
				fmt.Fprintf(&b, " %22s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func lookup(s *Series, x float64) (float64, bool) {
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// MonotoneIncreasing reports whether ys never decreases by more than a
// fractional tolerance; the scale-up assertions (Figs. 6–7) allow small
// noise but must catch a collapse.
func MonotoneIncreasing(ys []float64, tol float64) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1]*(1-tol) {
			return false
		}
	}
	return true
}

// GrowthExponent fits y ≈ c·xᵏ by least squares on log-log axes and returns
// k. The Fig. 3 shape check asserts k≈2 for the no-index engine and k≈1 for
// the indexed one. All inputs must be positive.
func GrowthExponent(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, fmt.Errorf("stats: GrowthExponent needs ≥2 paired samples")
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, fmt.Errorf("stats: GrowthExponent requires positive samples")
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	n := float64(len(xs))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, fmt.Errorf("stats: degenerate x values")
	}
	return (n*sxy - sx*sy) / den, nil
}
