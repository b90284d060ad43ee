package spatial

import "github.com/bigreddata/brace/internal/geom"

// Scan is the no-index baseline: every query enumerates and tests every
// point, giving the quadratic per-tick behavior the paper reports for
// "BRACE - no indexing" (Fig. 3: "without indexing every vehicle enumerates
// and tests every other vehicle during each tick").
type Scan struct {
	pts []Point
}

// NewScan returns an empty brute-force index.
func NewScan() *Scan { return &Scan{} }

// Build indexes pts, which the scan retains.
func (s *Scan) Build(pts []Point) { s.pts = pts }

// RangeCircleInto implements Index; every point is a candidate.
func (s *Scan) RangeCircleInto(c geom.Vec, rad float64, dst []int32) ([]int32, int64) {
	r2 := rad * rad
	for _, p := range s.pts {
		if p.Pos.Dist2(c) <= r2 {
			dst = append(dst, p.ID)
		}
	}
	return dst, int64(len(s.pts))
}

var _ Index = (*Scan)(nil)
