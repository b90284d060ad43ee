package engine

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/bigreddata/brace/internal/geom"
)

// FuzzCellGrid checks the cell grid's disc probe — a block build around a
// point box — against a brute-force disc: the same members, each once, and
// no more examined than the grid holds.
// Points are int16 lattice coordinates times a scale, with a marker byte
// that occasionally turns one into NaN or ±Inf; the visibility bound the
// grid is binned for (≤ 0: unbounded), the probe centre and the radius are
// arbitrary.
func FuzzCellGrid(f *testing.F) {
	pts := func(xy ...int16) []byte {
		var b []byte
		for i := 0; i+1 < len(xy); i += 2 {
			b = append(b, 1)
			b = binary.LittleEndian.AppendUint16(b, uint16(xy[i]))
			b = binary.LittleEndian.AppendUint16(b, uint16(xy[i+1]))
		}
		return b
	}
	lattice := pts(0, 0, 3, 4, -3, -4, 5, 0, 10, 10, 10, 11, 20, -7, -20, 7, 0, 5)
	f.Add(lattice, 1.0, 5.0, 0.0, 0.0, 5.0)                                         // exactly-r members
	f.Add(lattice, 1.0, 5.0, 0.0, 0.0, 2.0)                                         // radius below the cell edge
	f.Add(lattice, 0.5, 0.0, 3.0, 1.0, 4.0)                                         // unbounded visibility
	f.Add(lattice, 1.0, 5.0, 1e9, -3.0, 5.0)                                        // centre far outside the grid
	f.Add(pts(7, 7, 7, 7, 7, 7), 1.0, 5.0, 7.0, 7.0, 0.0)                           // one point, zero radius
	f.Add(append(lattice, 0, 0, 0, 0, 0), 1.0, 5.0, 3.0, 4.0, 6.0)                  // a NaN member
	f.Add(append(lattice, 32, 0, 0, 0, 0), 1.0, 5.0, 3.0, 4.0, 6.0)                 // a +Inf member
	f.Add(pts(-300, 2, 300, 2, 0, -300, 1, 300), 1e-3, 0.01, 0.0, 0.0, 0.5)         // grid coarsened
	f.Add(pts(1, 1, 2, 2), 1.0, 5.0, math.NaN(), 0.0, 5.0)                          // NaN centre
	f.Add(lattice, 1.0, 5.0, 0.0, 0.0, -5.0)                                        // negative radius
	f.Add(append(lattice, 32, 0, 0, 0, 0), 1.0, 5.0, math.Inf(1), 3.0, math.Inf(1)) // infinite centre and radius
	f.Fuzz(func(t *testing.T, data []byte, scale, vis, cx, cy, radius float64) {
		var xs, ys []float64
		special := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		for ; len(data) >= 5; data = data[5:] {
			x := float64(int16(binary.LittleEndian.Uint16(data[1:]))) * scale
			y := float64(int16(binary.LittleEndian.Uint16(data[3:]))) * scale
			switch data[0] {
			case 0:
				x = special[0]
			case 32:
				x = special[1]
			case 64:
				y = special[2]
			}
			xs, ys = append(xs, x), append(ys, y)
		}
		var g cellGrid
		g.build(xs, ys, vis)
		if n := len(xs); g.nx*g.ny > 4*n+64 {
			t.Fatalf("%d×%d cells for %d points", g.nx, g.ny, n)
		}
		pos := geom.V(cx, cy)
		got, seen := g.near(geom.Rect{Min: pos, Max: pos}, radius, []int32{-1})
		if got[0] != -1 {
			t.Fatal("the probe overwrote dst's prefix")
		}
		got = got[1:]
		if seen < int64(len(got)) || seen > int64(len(xs)) {
			t.Fatalf("examined %d members for %d hits out of %d", seen, len(got), len(xs))
		}
		var want []int32
		for j := range xs {
			dx, dy := xs[j]-pos.X, ys[j]-pos.Y
			if dx*dx+dy*dy <= radius*radius {
				want = append(want, int32(j))
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("grid %d×%d edge %v: probe %v r=%v found\n  %v\nwant\n  %v", g.nx, g.ny, g.edge, pos, radius, got, want)
		}
	})
}

// A buffer that resize grows one element at a time, as a partition's copy
// set creeps to a new high-water mark tick after tick, must reallocate a
// logarithmic number of times, as append does, and not once per step.
func TestResizeGrowsGeometrically(t *testing.T) {
	var s []float64
	reallocs := 0
	for n := 1; n <= 10000; n++ {
		before := cap(s)
		s = resize(s, n)
		if len(s) != n {
			t.Fatalf("resize to %d: length %d", n, len(s))
		}
		if cap(s) != before {
			reallocs++
		}
	}
	if reallocs > 40 {
		t.Fatalf("growing to 10000 one element at a time reallocated %d times, want ≤ 40", reallocs)
	}
}
