package spatial

import "github.com/bigreddata/brace/internal/geom"

// Scan is the no-index baseline: every query enumerates and tests every
// point, giving the quadratic per-tick behavior the paper reports for
// "BRACE - no indexing" (Fig. 3: "without indexing every vehicle enumerates
// and tests every other vehicle during each tick").
type Scan struct {
	pts   []Point
	stats Stats
}

// NewScan returns an empty brute-force index.
func NewScan() *Scan { return &Scan{} }

// Build implements Index.
func (s *Scan) Build(pts []Point) {
	s.pts = pts
	s.stats = Stats{}
}

// RangeCircle implements Index.
func (s *Scan) RangeCircle(c geom.Vec, rad float64, fn func(Point)) {
	s.stats.Visited += int64(len(s.pts))
	r2 := rad * rad
	for _, p := range s.pts {
		if p.Pos.Dist2(c) <= r2 {
			fn(p)
		}
	}
}

// Stats implements Index.
func (s *Scan) Stats() Stats { return s.stats }

var _ Index = (*Scan)(nil)
