package spatial

import (
	"sort"

	"github.com/bigreddata/brace/internal/geom"
)

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

// Len implements Index.
func (s *Scan) Len() int { return len(s.pts) }

// RangeCircle implements Index.
func (s *Scan) RangeCircle(c geom.Vec, rad float64, fn func(Point)) {
	s.stats.Probes++
	s.stats.Visited += int64(len(s.pts))
	r2 := rad * rad
	for _, p := range s.pts {
		if p.Pos.Dist2(c) <= r2 {
			fn(p)
		}
	}
}

// Nearest implements Index.
func (s *Scan) Nearest(c geom.Vec, k int, dst []Point) []Point {
	s.stats.Probes++
	s.stats.Visited += int64(len(s.pts))
	if k <= 0 || len(s.pts) == 0 {
		return dst
	}
	// Copy, sort by (distance, ID) — the Index tie rule. The scan baseline
	// is not meant to be fast; clarity wins.
	cand := make([]Point, len(s.pts))
	copy(cand, s.pts)
	sort.Slice(cand, func(i, j int) bool {
		di, dj := cand[i].Pos.Dist2(c), cand[j].Pos.Dist2(c)
		if di != dj {
			return di < dj
		}
		return cand[i].ID < cand[j].ID
	})
	if k > len(cand) {
		k = len(cand)
	}
	return append(dst, cand[:k]...)
}

// Stats implements Index.
func (s *Scan) Stats() Stats { return s.stats }

var _ Index = (*Scan)(nil)
