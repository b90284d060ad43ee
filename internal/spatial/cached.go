// The incremental query layer: a CachedIndex wraps the KD-tree with the
// molecular-dynamics Verlet-list technique. Behavioral simulations probe
// the same (slowly moving) point set every tick, so instead of rebuilding
// the tree and re-running every traversal per tick, the cache builds each
// agent's candidate list once with an inflated radius ρ+s ("skin" s) and
// reuses the lists — a filtered linear scan, no tree walk, no sort —
// until some point has drifted more than s/2 from its build position.
//
// Correctness invariant: if every point has moved at most s/2 since the
// lists were built, then for any probe radius r ≤ ρ centered at a point's
// *current* position, every point currently within r was within r+s ≤ ρ+s
// of the probing point's *build* position (triangle inequality, two moves
// of ≤ s/2), i.e. it is in the candidate list. All inequalities are
// closed, so reuse is exact at a displacement of exactly s/2.
package spatial

import (
	"math"

	"github.com/bigreddata/brace/internal/geom"
)

// CacheStats counts how BuildKeyed calls resolved: Builds is full rebuilds
// (tree + candidate lists), Reuses is ticks served from cached lists, and
// Visited is the candidates list construction examined. The counters
// accumulate across builds; callers take deltas. Probes are not counted:
// RangeCircleInto returns its visits to the caller.
type CacheStats struct {
	Builds  int64
	Reuses  int64
	Visited int64
}

// CachedIndex is a KD-tree with Verlet candidate-list reuse: a keyed build
// and two probe sources over slots — per-slot candidate lists and disc
// probes (RangeCircleInto) that answer against the *current* positions,
// even when the underlying tree holds stale build positions. Its Index
// probe answers in slots, never caller point IDs. With probeRad and skin 0
// it is the plain KD-tree: every BuildKeyed rebuilds the tree, no lists.
//
// A CachedIndex is owned by one engine part: builds and queries run on the
// goroutine that owns the part, never concurrently.
type CachedIndex struct {
	tree     *KDTree
	probeRad float64 // max slot-probe radius the lists must cover (ρ)
	skin     float64 // list inflation s; reuse while max displacement ≤ s/2

	valid bool
	n     int

	// Adaptive candidate-list gate. Workloads whose per-tick motion
	// exceeds skin/2 never reuse, so list construction would be pure
	// overhead every tick; after one full build-reuse-miss cycle the cache
	// stops building lists and degrades to plain per-tick rebuilds, until
	// an Invalidate re-arms it. The gate picks between two exact probe
	// sources, so it changes the work done and never the results.
	listsOn    bool
	listsBuilt bool  // the current build carries lists
	buildSeen  bool  // a rebuild happened since construction or the last Invalidate
	reuseRun   int   // reuses since the last rebuild
	buildCost  int64 // tree candidates visited by the last list build
	listWork   int64 // candidate-list entries of the last build (per-tick scan cost)

	keys     []int64    // per-slot identity at build
	probeSet []int32    // slots that probe (nil = all); must match to reuse
	hasProbe bool       // probeSet was provided
	built    []geom.Vec // positions at build, slot order
	cur      []geom.Vec // current positions, slot order
	treePts  []Point    // tree's copy (reordered by its Build); ID = slot
	pad      float64    // max displacement since build (disc-query inflation)

	lists [][]int32 // per-slot candidate slots, ascending; nil w/o probeRad
	mask  []bool    // probe-set membership scratch

	hits []int32 // tree-probe scratch for the list build

	// Uniform-grid scratch for the list build (see buildListsGrid).
	cellStart []int32
	cellCur   []int32
	cellPts   []int32
	cellXs    []float64
	cellYs    []float64

	// Point scratch for BuildKeyedCols (column-fed builds).
	colPts []Point

	cs CacheStats
}

// NewCached returns a cached KD-tree whose candidate lists cover slot
// probes up to radius probeRad, with the given skin. probeRad ≤ 0 disables
// candidate lists (disc queries still work, against the stale tree with
// displacement-padded traversals); skin ≤ 0 disables reuse entirely,
// making every BuildKeyed a rebuild.
func NewCached(probeRad, skin float64) *CachedIndex {
	if probeRad < 0 {
		probeRad = 0
	}
	if skin < 0 {
		skin = 0
	}
	return &CachedIndex{tree: NewKDTree(), probeRad: probeRad, skin: skin, listsOn: true}
}

// DefaultSkin picks a skin for a visibility bound and per-tick reachability
// r (0 = unknown): wide enough to amortize rebuilds over a few ticks of
// full-speed motion, narrow enough that candidate lists stay close to the
// true neighborhood. Exposed so engines and experiments share one policy.
func DefaultSkin(probeRad, reach float64) float64 {
	if probeRad <= 0 {
		return 0
	}
	s := probeRad / 2
	if reach > 0 {
		// Reuse window ≈ s/2 / step ≈ 2 ticks at full speed; agents rarely
		// move at full reach every tick, so the realized window is longer.
		if r := 4 * reach; r < s {
			s = r
		}
	}
	return s
}

// CacheStats returns the cumulative build, reuse and list-visit counters.
func (c *CachedIndex) CacheStats() CacheStats { return c.cs }

// Invalidate drops the cached build, forcing the next BuildKeyed to
// rebuild, and re-arms the adaptive list gate: a cold start for callers
// that measure one (the benchmark's build probes). Correctness never needs
// it — BuildKeyed validates reuse against its own keys, probe set and
// build positions — and the engines never call it.
func (c *CachedIndex) Invalidate() {
	c.valid = false
	c.listsOn = true
	c.buildSeen = false
	c.reuseRun = 0
}

// HasLists reports whether the current build carries candidate lists —
// the precondition for SlotCandidates.
func (c *CachedIndex) HasLists() bool { return c.listsBuilt }

// ProbeRadius returns the radius the candidate lists cover.
func (c *CachedIndex) ProbeRadius() float64 { return c.probeRad }

// BuildKeyed installs the tick's point set; point i is slot i (Point.ID is
// ignored). keys[i] is a stable identity for slot i (the engines pass agent
// IDs): when the keyed slot sequence is unchanged since the last build,
// the probe set is the same, and no point has moved more than s/2 from its
// build position, the cached tree and candidate lists are reused and only
// current positions are refreshed. Otherwise the tree is rebuilt and, when
// probeRad > 0, candidate lists with radius probeRad+s are rebuilt for
// every probe slot (probe == nil means every slot probes). Returns whether
// a rebuild happened.
//
// The caller's pts slice is copied, not retained or reordered.
func (c *CachedIndex) BuildKeyed(pts []Point, keys []int64, probe []int32) bool {
	if c.listsOn && c.tryReuse(pts, keys, probe) {
		c.cs.Reuses++
		c.reuseRun++
		return false
	}
	// Adaptive gate. Lists pay for themselves two ways: reuse across
	// ticks, and cheaper probes within a tick (a sorted flat scan instead
	// of a tree walk + sort). A build whose lists were never reused AND
	// whose construction cost dwarfed the per-tick scan work means the
	// workload outruns the skin every tick with neighborhoods too small
	// to amortize construction (e.g. a fast random walk with a tiny
	// infection radius) — stop paying for lists. The 3/2 threshold tracks
	// the grid build's interior visit-to-entry ratio of 6.25/π ≈ 2: a
	// same-order build is tolerable (it replaces the tick's tree walks),
	// a clearly costlier one is not.
	if c.listsOn && c.buildSeen && c.reuseRun == 0 && 2*c.buildCost > 3*c.listWork {
		c.listsOn = false
	}
	c.rebuild(pts, keys, probe)
	c.cs.Builds++
	c.buildSeen = true
	c.reuseRun = 0
	return true
}

// BuildKeyedCols is BuildKeyed fed straight from state columns: point i is
// (xs[i], ys[i]) with slot ID i. The engines' columnar path hands its
// position columns to the index without materializing a caller-side point
// slice; the values are the same float64s an agent-side build would read,
// so the resulting tree and lists are identical.
func (c *CachedIndex) BuildKeyedCols(xs, ys []float64, keys []int64, probe []int32) bool {
	c.colPts = grow(c.colPts, len(xs))
	for i := range xs {
		c.colPts[i] = Point{Pos: geom.Vec{X: xs[i], Y: ys[i]}, ID: int32(i)}
	}
	return c.BuildKeyed(c.colPts, keys, probe)
}

// tryReuse checks the reuse conditions and, when they hold, refreshes
// current positions and the displacement pad.
func (c *CachedIndex) tryReuse(pts []Point, keys []int64, probe []int32) bool {
	if !c.valid || c.skin <= 0 || keys == nil ||
		len(pts) != c.n || len(keys) != c.n || len(c.keys) != c.n {
		return false
	}
	for i, k := range keys {
		if c.keys[i] != k {
			return false
		}
	}
	if (probe == nil) != !c.hasProbe || len(probe) != len(c.probeSet) {
		return false
	}
	for i, s := range probe {
		if c.probeSet[i] != s {
			return false
		}
	}
	lim := (c.skin / 2) * (c.skin / 2)
	maxD2 := 0.0
	for i := range pts {
		if d2 := pts[i].Pos.Dist2(c.built[i]); d2 > maxD2 {
			if d2 > lim {
				return false
			}
			maxD2 = d2
		}
	}
	for i := range pts {
		c.cur[i] = pts[i].Pos
	}
	if maxD2 > 0 {
		c.pad = math.Sqrt(maxD2)
	} else {
		c.pad = 0
	}
	return true
}

func (c *CachedIndex) rebuild(pts []Point, keys []int64, probe []int32) {
	n := len(pts)
	c.n = n
	c.valid = true
	c.pad = 0
	c.keys = append(c.keys[:0], keys...)
	c.probeSet = append(c.probeSet[:0], probe...)
	c.hasProbe = probe != nil
	c.built = grow(c.built, n)
	c.cur = grow(c.cur, n)
	c.treePts = grow(c.treePts, n)
	for i, p := range pts {
		c.built[i] = p.Pos
		c.cur[i] = p.Pos
		c.treePts[i] = Point{Pos: p.Pos, ID: int32(i)}
	}
	c.tree.Build(c.treePts)
	c.listsBuilt = c.listsOn && c.probeRad > 0
	if c.listsBuilt {
		c.buildLists()
	}
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// buildLists constructs the per-slot candidate lists with radius ρ+s.
// It sweeps candidates j in ascending slot order and appends j to the list
// of every probe slot i within range — the pair relation is symmetric, so
// one tree probe per candidate discovers all its list memberships, and the
// ascending sweep leaves every list sorted by slot (= ascending agent ID
// in the engines) with no per-probe sort ever needed again.
func (c *CachedIndex) buildLists() {
	n := c.n
	if cap(c.lists) < n {
		old := c.lists
		c.lists = make([][]int32, n)
		copy(c.lists, old)
	}
	c.lists = c.lists[:n]
	for i := range c.lists {
		c.lists[i] = c.lists[i][:0]
	}
	c.mask = grow(c.mask, n)
	for i := range c.mask {
		c.mask[i] = !c.hasProbe
	}
	for _, s := range c.probeSet {
		c.mask[s] = true
	}

	R := c.probeRad + c.skin
	if c.buildListsGrid(R) {
		return
	}
	hits := c.hits
	var visited, entries int64
	for j := 0; j < n; j++ {
		var v int64
		hits, v = c.tree.RangeCircleInto(c.built[j], R, hits[:0])
		visited += v
		for _, i := range hits {
			if c.mask[i] {
				c.lists[i] = append(c.lists[i], int32(j))
				entries++
			}
		}
	}
	c.hits = hits
	c.buildCost, c.listWork = visited, entries
	c.cs.Visited += visited
}

// buildListsGrid is the dense-layout list construction: a uniform grid
// with cell edge R/2 replaces the per-point tree probe. Binning is a
// counting sort (stable, so cell membership ascends by slot) that also
// copies the coordinates into bin order, so the pair sweep streams
// contiguous columns instead of gathering points by slot. Each point
// sweeps its 5×5 cell neighborhood — a pair within R spans at most two
// cells per axis at edge R/2, and the finer cells shrink the tested area
// from 9R² (3×3 at edge R) to 6.25R². Cells of one window row are
// adjacent in the bin layout, so each row is a single contiguous span.
// The candidate sweep runs j ascending exactly like the tree path, and
// the order in which a given j tests its i-candidates never reaches the
// output (each hit appends j to a distinct lists[i]), so the lists hold
// the identical entries in the identical order; only the construction
// cost (and its Visited accounting, which counts bin members examined
// instead of tree candidates) changes. Returns false for layouts so
// sparse that cells would far outnumber points — there the tree's pruning
// wins and the caller keeps the tree sweep.
func (c *CachedIndex) buildListsGrid(R float64) bool {
	n := c.n
	if n == 0 || R <= 0 {
		return false
	}
	h := R / 2
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range c.built[:n] {
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	fx := math.Floor((maxX-minX)/h) + 1
	fy := math.Floor((maxY-minY)/h) + 1
	if !(fx > 0 && fy > 0) || fx*fy > float64(16*n+64) {
		return false
	}
	nx, ny := int(fx), int(fy)
	ncells := nx * ny

	cellOf := func(p geom.Vec) (int, int) {
		cx, cy := int((p.X-minX)/h), int((p.Y-minY)/h)
		if cx >= nx {
			cx = nx - 1
		}
		if cy >= ny {
			cy = ny - 1
		}
		return cx, cy
	}
	c.cellStart = grow(c.cellStart, ncells+1)
	for i := range c.cellStart {
		c.cellStart[i] = 0
	}
	for _, p := range c.built[:n] {
		cx, cy := cellOf(p)
		c.cellStart[cy*nx+cx+1]++
	}
	for i := 1; i <= ncells; i++ {
		c.cellStart[i] += c.cellStart[i-1]
	}
	c.cellCur = grow(c.cellCur, ncells)
	copy(c.cellCur, c.cellStart[:ncells])
	c.cellPts = grow(c.cellPts, n)
	c.cellXs = grow(c.cellXs, n)
	c.cellYs = grow(c.cellYs, n)
	for i := 0; i < n; i++ {
		p := c.built[i]
		cx, cy := cellOf(p)
		k := c.cellCur[cy*nx+cx]
		c.cellPts[k] = int32(i)
		c.cellXs[k] = p.X
		c.cellYs[k] = p.Y
		c.cellCur[cy*nx+cx]++
	}

	R2 := R * R
	// cellWindow returns the clamped 5×5 cell neighborhood of p.
	cellWindow := func(p geom.Vec) (xlo, xhi, ylo, yhi int) {
		cx, cy := cellOf(p)
		ylo, yhi = cy-2, cy+2
		if ylo < 0 {
			ylo = 0
		}
		if yhi >= ny {
			yhi = ny - 1
		}
		xlo, xhi = cx-2, cx+2
		if xlo < 0 {
			xlo = 0
		}
		if xhi >= nx {
			xhi = nx - 1
		}
		return
	}
	// The all-slots-probe case (every one-partition tick) gets its own inner
	// loop without the per-candidate mask load.
	var visited, entries int64
	lists := c.lists
	maskAll := !c.hasProbe
	for j := 0; j < n; j++ {
		p := c.built[j]
		xlo, xhi, ylo, yhi := cellWindow(p)
		for yy := ylo; yy <= yhi; yy++ {
			base := yy * nx
			s, e := c.cellStart[base+xlo], c.cellStart[base+xhi+1]
			xs, ys := c.cellXs[s:e], c.cellYs[s:e]
			visited += int64(e - s)
			if maskAll {
				for k, x := range xs {
					dx, dy := x-p.X, ys[k]-p.Y
					if dx*dx+dy*dy <= R2 {
						i := c.cellPts[int(s)+k]
						lists[i] = append(lists[i], int32(j))
						entries++
					}
				}
			} else {
				for k, x := range xs {
					dx, dy := x-p.X, ys[k]-p.Y
					if dx*dx+dy*dy <= R2 {
						if i := c.cellPts[int(s)+k]; c.mask[i] {
							lists[i] = append(lists[i], int32(j))
							entries++
						}
					}
				}
			}
		}
	}
	c.buildCost, c.listWork = visited, entries
	c.cs.Visited += visited
	return true
}

// SlotCandidates returns slot's sorted candidate list and the shared
// current-position array: every point within probeRad of cur[slot] is in
// the list (plus near-misses within the skin); the caller filters by exact
// current distance. Only valid after a BuildKeyed with probeRad > 0 and
// slot in the probe set.
func (c *CachedIndex) SlotCandidates(slot int32) ([]int32, []geom.Vec) {
	return c.lists[slot], c.cur
}

// Current returns the current position of slot i (for callers that track
// slots but not positions).
func (c *CachedIndex) Current(i int32) geom.Vec { return c.cur[i] }

// RangeCircleInto implements Index over slots: it appends the slots
// currently within rad of cen to dst. It is the engines' probe whenever the
// candidate lists do not serve one. It answers against *current* positions
// even when the tree holds stale build positions: right after a rebuild
// (pad 0) the tree's filter is already exact; on reuse ticks the tree is
// probed with the disc grown by the maximum displacement since build and
// candidates re-filter by where they are now.
func (c *CachedIndex) RangeCircleInto(cen geom.Vec, rad float64, dst []int32) ([]int32, int64) {
	if c.pad == 0 {
		return c.tree.RangeCircleInto(cen, rad, dst)
	}
	start := len(dst)
	dst, visited := c.tree.RangeCircleInto(cen, rad+c.pad, dst)
	r2 := rad * rad
	kept := start
	for _, i := range dst[start:] {
		if c.cur[i].Dist2(cen) <= r2 {
			dst[kept] = i
			kept++
		}
	}
	return dst[:kept], visited
}

var _ Index = (*CachedIndex)(nil)
