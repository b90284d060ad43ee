package engine

import (
	"math"
	"slices"

	"github.com/bigreddata/brace/internal/geom"
)

// cellGrid is the engine's candidate source over one copy set, rebuilt
// every tick: the copies counting-sorted into a uniform grid of square
// cells, each member stored as its position and an id. A block build
// (near) reads only the cells its box, dilated by the radius, touches and
// appends the ids of the members within radius of the box. A tick is one
// spatial self-join over the current positions (§3), so nothing is kept
// from one tick to the next.
//
// A pass has up to two grids: the core grid over the part's copies, whose
// ids are the core slots, and the halo grid over the peer-sent copies,
// whose ids are their ranks among core ∪ halo (haloJoin).
type cellGrid struct {
	// nx×ny cells of the given edge from (minX, minY); cell c holds the
	// members [start[c], start[c+1]). One cell when the extents are
	// degenerate.
	minX, minY, edge float64
	nx, ny           int
	start            []int32
	xs, ys           []float64
	id               []int32
	// Build scratch: the cell of each input point, and the fill cursor by
	// cell.
	cell, cur []int32

	// scan makes every build one cell whatever the extent: the "no
	// indexing" configuration (KindScan), in which a block build examines
	// every member.
	scan bool
}

// build bins the points (xs[j], ys[j]) with id ids[j], or j itself when ids
// is nil, for probes of radius at most vis (vis ≤ 0: unbounded).
//
// The cell edge is half the visibility bound, so a visibility disc spans
// five cells per axis (six when it ends on a cell edge) and reads about
// twice its own area. Under unbounded visibility it is the wider extent
// over √n, about one copy per cell. Either way it is doubled until the
// grid has no more than 4n+64 cells. Extents that are empty or not finite
// (no copies, a NaN or infinite coordinate) get the one cell that is
// always correct, as does every build of a scan grid.
func (g *cellGrid) build(xs, ys []float64, ids []int32, vis float64) {
	n := len(xs)
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for j, x := range xs {
		y := ys[j]
		minX, minY = math.Min(minX, x), math.Min(minY, y)
		maxX, maxY = math.Max(maxX, x), math.Max(maxY, y)
	}
	g.minX, g.minY, g.edge, g.nx, g.ny = minX, minY, 0, 1, 1
	if w, d := maxX-minX, maxY-minY; !g.scan && w >= 0 && d >= 0 && !math.IsInf(w, 0) && !math.IsInf(d, 0) {
		edge := vis / 2
		if vis <= 0 {
			edge = math.Max(w, d) / math.Sqrt(float64(n))
		}
		if edge > 0 {
			fx, fy := math.Floor(w/edge)+1, math.Floor(d/edge)+1
			for fx*fy > float64(4*n+64) {
				edge *= 2
				fx, fy = math.Floor(w/edge)+1, math.Floor(d/edge)+1
			}
			g.edge, g.nx, g.ny = edge, int(fx), int(fy)
		}
	}
	ncells := g.nx * g.ny

	g.cell = resize(g.cell, n)
	g.start = resize(g.start, ncells+1)
	clear(g.start)
	for j := range g.cell {
		c := 0
		if ncells > 1 {
			cx, cy := int((xs[j]-minX)/g.edge), int((ys[j]-minY)/g.edge)
			c = min(cy, g.ny-1)*g.nx + min(cx, g.nx-1)
		}
		g.cell[j] = int32(c)
		g.start[c+1]++
	}
	for c := 0; c < ncells; c++ {
		g.start[c+1] += g.start[c]
	}
	g.cur = append(g.cur[:0], g.start[:ncells]...)

	g.xs, g.ys, g.id = resize(g.xs, n), resize(g.ys, n), resize(g.id, n)
	for j, c := range g.cell {
		k := g.cur[c]
		g.cur[c]++
		g.xs[k], g.ys[k] = xs[j], ys[j]
		if ids != nil {
			g.id[k] = ids[j]
		} else {
			g.id[k] = int32(j)
		}
	}
}

// near appends to dst the id of every member within radius of the box b,
// in cell order, and returns how many members it examined: those of the
// cells the box, grown by the radius, touches. The cells of one grid row
// are adjacent in the bin layout, so each row is one contiguous span.
//
// A point box is a disc probe, with the probe's own test. A wider box
// takes a member's distance per axis, as its distance to the box's centre
// less the box's half-width (zero inside), and squares and sums it like a
// disc probe's offset. It rounds its centre and half-width, so its test
// runs at the radius plus the same slack as the cell span; the block then
// keeps every member of the disc of every point inside the box, at that
// radius or less. A NaN member is never near. A box that is not finite
// can miss members, so the query pass never builds on one (see
// queryEnv.build).
func (g *cellGrid) near(b geom.Rect, radius float64, dst []int32) ([]int32, int64) {
	// A member passes the distance test below when its computed offset is
	// within radius, which rounding lets exceed the box's edge ± radius by
	// an ulp or so; the slack keeps such a member's cell inside the span.
	// The test squares the radius, so a negative one reaches as far as its
	// magnitude.
	r := math.Abs(radius)
	ax, ay := math.Abs(b.Min.X), math.Abs(b.Min.Y)
	if a := math.Abs(b.Max.X); a > ax {
		ax = a
	}
	if a := math.Abs(b.Max.Y); a > ay {
		ay = a
	}
	reach := r + (ax+ay+r)*1e-12
	// An infinite reach covers every cell, even from a box at infinity,
	// where the span's bounds would be Inf-Inf.
	cxlo, cxhi, cylo, cyhi := 0, g.nx-1, 0, g.ny-1
	if g.nx*g.ny > 1 && !math.IsInf(reach, 1) {
		var okX, okY bool
		cxlo, cxhi, okX = cellSpan(b.Min.X-reach, b.Max.X+reach, g.minX, g.edge, g.nx)
		cylo, cyhi, okY = cellSpan(b.Min.Y-reach, b.Max.Y+reach, g.minY, g.edge, g.ny)
		if !okX || !okY {
			return dst, 0
		}
	}
	r2, point := radius*radius, b.Min == b.Max
	cx, cy, hx, hy := b.Min.X, b.Min.Y, 0.0, 0.0
	if !point {
		hx, hy = (b.Max.X-b.Min.X)/2, (b.Max.Y-b.Min.Y)/2
		cx, cy = b.Min.X+hx, b.Min.Y+hy
		r2 = reach * reach
	}
	var seen int64
	for row := cylo; row <= cyhi; row++ {
		s, e := g.start[row*g.nx+cxlo], g.start[row*g.nx+cxhi+1]
		xs, ys, id := g.xs[s:e], g.ys[s:e], g.id[s:e]
		seen += int64(len(xs))
		// An unconditional store and a conditional advance: whether a
		// member is in range is data-dependent, so keeping it off the
		// store's critical path is worth a few percent.
		k := len(dst)
		dst = slices.Grow(dst, len(xs))[:k+len(xs)]
		if point {
			for i, x := range xs {
				dx, dy := x-cx, ys[i]-cy
				dst[k] = id[i]
				if dx*dx+dy*dy <= r2 {
					k++
				}
			}
		} else {
			for i, x := range xs {
				tx, ty := math.Abs(x-cx)-hx, math.Abs(ys[i]-cy)-hy
				dx, dy := (tx+math.Abs(tx))/2, (ty+math.Abs(ty))/2
				dst[k] = id[i]
				if dx*dx+dy*dy <= r2 {
					k++
				}
			}
		}
		dst = dst[:k]
	}
	return dst, seen
}

// cellSpan returns the cells [lo, hi], of an axis of n cells of the given
// edge starting at origin, that the interval [from, to] touches; ok is
// false when it touches none (or a bound is not a number). The
// comparisons run on the float quotients, so a box far outside the grid
// never converts an out-of-range value to int.
func cellSpan(from, to, origin, edge float64, n int) (lo, hi int, ok bool) {
	flo, fhi := (from-origin)/edge, (to-origin)/edge
	if !(fhi >= 0 && flo < float64(n)) {
		return 0, 0, false
	}
	if flo > 0 {
		lo = int(flo)
	}
	hi = n - 1
	if fhi < float64(hi) {
		hi = int(fhi)
	}
	return lo, hi, true
}
