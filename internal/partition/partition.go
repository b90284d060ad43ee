// Package partition implements BRACE's spatial partitioning function
// P : L → partitions (paper §3.2, App. A) and the one-dimensional load
// balancer of §5.1. There is one partitioner, the paper prototype's: 1-D
// strips along x whose cuts the balancer moves.
//
// A partitioning assigns every location to exactly one partition (its
// owner); each partition also has a *visible region* — its owned region
// expanded by the agents' visibility bound — which determines
// replication: an agent is copied to every partition whose visible region
// contains it.
package partition

import (
	"fmt"
	"math"
	"sort"

	"github.com/bigreddata/brace/internal/geom"
)

// ReplicaTargets appends to dst every partition whose visible region
// contains pos — i.e. every partition that must receive a replica of an
// agent at pos, given the visibility distance bound (≤ 0 = unbounded, in
// which case every partition receives the agent) — in ascending order.
//
// VR(p) = ∪_{l : P(l)=p} VR(l) is, for distance-bound visibility, exactly
// Region(p) expanded by the bound; pos ∈ VR(p) ⇔ dist(pos, Region(p)) ≤
// bound. A strip's distance from pos grows with its distance from the
// owner's strip, where it is zero, so the targets are one run of strips
// around the owner: the scan walks outward from it and stops at the first
// strip out of reach on each side.
func ReplicaTargets(f *Strips, pos geom.Vec, visibility float64, dst []int) []int {
	n := f.N()
	if visibility <= 0 {
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	v2 := visibility * visibility
	reach := func(i int) bool { return f.Region(i).Dist2(pos) <= v2 }
	lo := f.Locate(pos)
	if !reach(lo) {
		return dst // a NaN bound reaches nothing, not even the owner
	}
	hi := lo
	for lo > 0 && reach(lo-1) {
		lo--
	}
	for hi < n-1 && reach(hi+1) {
		hi++
	}
	for i := lo; i <= hi; i++ {
		dst = append(dst, i)
	}
	return dst
}

// Strips is the partitioning: vertical strips with variable cut positions
// along the x axis, which the paper's one-dimensional load balancer
// adjusts (§5.1). Strip i owns
// [cut[i-1], cut[i]) × (−∞, ∞), with the first strip extending to −∞ and
// the last to +∞, so every location always has an owner even as agents
// wander (the fish "ocean" is unbounded).
type Strips struct {
	cuts []float64 // ascending interior boundaries; len = N-1
}

// NewStrips builds n equal-width strips whose interior cuts subdivide
// [lo, hi]. n must be ≥ 1 and hi > lo for n > 1.
func NewStrips(n int, lo, hi float64) *Strips {
	if n < 1 {
		panic("partition: need at least one strip")
	}
	if n > 1 && hi <= lo {
		panic("partition: empty strip domain")
	}
	cuts := make([]float64, n-1)
	for i := range cuts {
		cuts[i] = lo + (hi-lo)*float64(i+1)/float64(n)
	}
	return &Strips{cuts: cuts}
}

// NewStripsFromCuts builds strips from explicit interior boundaries, which
// must be finite and strictly increasing. Cuts arrive from the network
// (rebalancing directives, checkpoints), so both are checked.
func NewStripsFromCuts(cuts []float64) (*Strips, error) {
	for i, c := range cuts {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("partition: cut %d is %v", i, c)
		}
		if i > 0 && c <= cuts[i-1] {
			return nil, fmt.Errorf("partition: cuts not strictly increasing at %d", i)
		}
	}
	return &Strips{cuts: append([]float64(nil), cuts...)}, nil
}

// N returns the number of strips.
func (s *Strips) N() int { return len(s.cuts) + 1 }

// Cuts returns a copy of the interior boundaries.
func (s *Strips) Cuts() []float64 { return append([]float64(nil), s.cuts...) }

// Locate returns the strip owning p: the first strip whose cut lies above
// p.X, which is exactly the half-open [prev, c) ownership. NaN belongs to
// the last strip.
func (s *Strips) Locate(p geom.Vec) int {
	return sort.Search(len(s.cuts), func(i int) bool { return s.cuts[i] > p.X })
}

// Region returns the owned region of strip i.
func (s *Strips) Region(i int) geom.Rect {
	lo, hi := math.Inf(-1), math.Inf(1)
	if i > 0 {
		lo = s.cuts[i-1]
	}
	if i < len(s.cuts) {
		hi = s.cuts[i]
	}
	return geom.Rect{
		Min: geom.Vec{X: lo, Y: math.Inf(-1)},
		Max: geom.Vec{X: hi, Y: math.Inf(1)},
	}
}

// InitialStrips builds n strips whose cuts sit at equal-count quantiles of
// the given x coordinates — the master's initial partitioning computed
// from the starting population (§3.3). Degenerate inputs (few or identical
// positions) fall back to strictly increasing cuts around the data.
func InitialStrips(xs []float64, n int) *Strips {
	if n < 1 {
		panic("partition: need at least one strip")
	}
	if n == 1 {
		return &Strips{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	cuts := make([]float64, 0, n-1)
	eps := 1e-9
	if len(sorted) > 1 {
		if span := sorted[len(sorted)-1] - sorted[0]; span > 0 {
			eps = span * 1e-9
		}
	}
	for i := 1; i < n; i++ {
		var c float64
		if len(sorted) == 0 {
			c = float64(i)
		} else {
			c = sorted[i*len(sorted)/n]
		}
		if len(cuts) > 0 && c <= cuts[len(cuts)-1] {
			c = cuts[len(cuts)-1] + eps
		}
		cuts = append(cuts, c)
	}
	return &Strips{cuts: cuts}
}
