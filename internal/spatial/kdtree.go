package spatial

import "github.com/bigreddata/brace/internal/geom"

// KDTree is a bucketed 2-d tree over points [Bentley, SGC 1990], the index
// the BRACE prototype uses (paper §5.1: "a generic KD-tree based spatial
// index capability"). It is rebuilt in bulk each tick by median splitting;
// leaves hold up to leafSize points scanned linearly, which keeps the
// traversal constant small while preserving O(√n + k) range queries.
//
// Nodes are laid out in preorder (a node's left child immediately follows
// it; the right child follows the whole left subtree). Because splits are
// by count, the tree *shape* is a function of len(pts) alone, so the node
// slice is sized once (nodeCount) and every subtree writes its own known
// range of it.
type KDTree struct {
	pts   []Point // reordered during build; leaves reference spans
	nodes []kdNode
	root  int32
	stats Stats
}

const leafSize = 16

type kdNode struct {
	split       float64 // splitting coordinate (internal nodes)
	left, right int32   // children (internal nodes)
	start, end  int32   // point span (leaf nodes)
	axis        int8    // 0 = X, 1 = Y, leafAxis = leaf
}

const (
	kdNil    = int32(-1)
	leafAxis = int8(2)
)

// NewKDTree returns an empty KD-tree.
func NewKDTree() *KDTree { return &KDTree{root: kdNil} }

// Build implements Index. It takes ownership of pts (the slice is
// reordered in place during median partitioning).
func (t *KDTree) Build(pts []Point) {
	t.stats = Stats{}
	t.pts = pts
	if len(pts) == 0 {
		t.root = kdNil
		t.nodes = t.nodes[:0]
		return
	}
	need := int(nodeCount(int32(len(pts))))
	if cap(t.nodes) < need {
		t.nodes = make([]kdNode, need)
	} else {
		t.nodes = t.nodes[:need]
	}
	t.root = 0
	t.buildAt(0, 0, int32(len(pts)), 0)
}

// nodeCount returns the number of nodes a (sub)tree over n points uses.
// It mirrors buildAt's count-based split exactly: left gets ⌊n/2⌋ points.
func nodeCount(n int32) int32 {
	if n <= leafSize {
		return 1
	}
	l := n / 2
	return 1 + nodeCount(l) + nodeCount(n-l)
}

// buildAt writes the subtree over pts[lo:hi] into the preorder node range
// starting at ni.
func (t *KDTree) buildAt(ni, lo, hi int32, depth int) {
	for {
		if hi-lo <= leafSize {
			t.nodes[ni] = kdNode{axis: leafAxis, start: lo, end: hi}
			return
		}
		axis := int8(depth & 1)
		mid := (lo + hi) / 2
		selectMedian(t.pts[lo:hi], int(mid-lo), axis)
		left := ni + 1
		right := ni + 1 + nodeCount(mid-lo)
		t.nodes[ni] = kdNode{axis: axis, split: key(t.pts[mid], axis), left: left, right: right}
		t.buildAt(right, mid, hi, depth+1)
		ni, hi = left, mid
		depth++
	}
}

func key(p Point, axis int8) float64 {
	if axis == 0 {
		return p.Pos.X
	}
	return p.Pos.Y
}

// selectMedian partially sorts pts so pts[k] is the k-th point by the given
// axis (quickselect with median-of-three pivoting, falling back to full
// sort for tiny slices). Points left of k end up ≤ pts[k] on the axis.
func selectMedian(pts []Point, k int, axis int8) {
	lo, hi := 0, len(pts)-1
	for hi > lo {
		if hi-lo < 12 {
			// Insertion sort: sort.Slice's reflection-based swapper
			// allocates, and this fallback runs once per leaf per rebuild —
			// it was the tree build's only steady-state allocation.
			for i := lo + 1; i <= hi; i++ {
				p := pts[i]
				kp := key(p, axis)
				j := i - 1
				for j >= lo && key(pts[j], axis) > kp {
					pts[j+1] = pts[j]
					j--
				}
				pts[j+1] = p
			}
			return
		}
		// Median-of-three pivot.
		m := (lo + hi) / 2
		if key(pts[m], axis) < key(pts[lo], axis) {
			pts[m], pts[lo] = pts[lo], pts[m]
		}
		if key(pts[hi], axis) < key(pts[lo], axis) {
			pts[hi], pts[lo] = pts[lo], pts[hi]
		}
		if key(pts[hi], axis) < key(pts[m], axis) {
			pts[hi], pts[m] = pts[m], pts[hi]
		}
		pivot := key(pts[m], axis)
		i, j := lo, hi
		for i <= j {
			for key(pts[i], axis) < pivot {
				i++
			}
			for key(pts[j], axis) > pivot {
				j--
			}
			if i <= j {
				pts[i], pts[j] = pts[j], pts[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// Len implements Index.
func (t *KDTree) Len() int { return len(t.pts) }

// RangeCircle implements Index using an explicit stack (no recursion
// overhead): prune by the circumscribing square, filter candidates by exact
// distance.
func (t *KDTree) RangeCircle(c geom.Vec, rad float64, fn func(Point)) {
	t.stats.Probes++
	if t.root == kdNil {
		return
	}
	r := geom.Square(c, rad)
	r2 := rad * rad
	var stack [64]int32
	sp := 0
	stack[sp] = t.root
	sp++
	for sp > 0 {
		sp--
		n := &t.nodes[stack[sp]]
		if n.axis == leafAxis {
			t.stats.Visited += int64(n.end - n.start)
			for _, p := range t.pts[n.start:n.end] {
				if p.Pos.Dist2(c) <= r2 {
					fn(p)
				}
			}
			continue
		}
		var lo, hi float64
		if n.axis == 0 {
			lo, hi = r.Min.X, r.Max.X
		} else {
			lo, hi = r.Min.Y, r.Max.Y
		}
		if lo <= n.split {
			stack[sp] = n.left
			sp++
		}
		if hi >= n.split {
			stack[sp] = n.right
			sp++
		}
	}
}

// rangeCircleSlots appends the IDs of points within rad of c to dst and
// returns (dst, candidates visited). Stats-free: the cached index accounts
// the visits itself.
func (t *KDTree) rangeCircleSlots(c geom.Vec, rad float64, dst []int32) ([]int32, int64) {
	if t.root == kdNil {
		return dst, 0
	}
	r := geom.Square(c, rad)
	r2 := rad * rad
	var visited int64
	var stack [64]int32
	sp := 0
	stack[sp] = t.root
	sp++
	for sp > 0 {
		sp--
		n := &t.nodes[stack[sp]]
		if n.axis == leafAxis {
			visited += int64(n.end - n.start)
			for _, p := range t.pts[n.start:n.end] {
				if p.Pos.Dist2(c) <= r2 {
					dst = append(dst, p.ID)
				}
			}
			continue
		}
		var lo, hi float64
		if n.axis == 0 {
			lo, hi = r.Min.X, r.Max.X
		} else {
			lo, hi = r.Min.Y, r.Max.Y
		}
		if lo <= n.split {
			stack[sp] = n.left
			sp++
		}
		if hi >= n.split {
			stack[sp] = n.right
			sp++
		}
	}
	return dst, visited
}

// Nearest implements Index: best-first descent with a bounded max-heap of
// candidates, pruning subtrees whose slab cannot beat the k-th best. Ties
// in distance are broken by ascending ID (the Index contract), so the
// result is a deterministic function of the point set alone.
func (t *KDTree) Nearest(c geom.Vec, k int, dst []Point) []Point {
	t.stats.Probes++
	var visited int64
	dst, visited = t.nearestInto(c, k, dst)
	t.stats.Visited += visited
	return dst
}

// nearestInto is Nearest without stats mutation (returns the visited count
// instead).
func (t *KDTree) nearestInto(c geom.Vec, k int, dst []Point) ([]Point, int64) {
	if k <= 0 || t.root == kdNil {
		return dst, 0
	}
	h := &kdHeap{}
	var visited int64
	t.nearestRec(t.root, c, k, h, geom.Infinite(), &visited)
	out := make([]Point, len(h.pts))
	// Extract in increasing (distance, ID) order.
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = h.popMax()
	}
	return append(dst, out...), visited
}

func (t *KDTree) nearestRec(ni int32, c geom.Vec, k int, h *kdHeap, bounds geom.Rect, visited *int64) {
	n := &t.nodes[ni]
	if h.len() == k && bounds.Dist2(c) > h.d2[0] {
		return
	}
	if n.axis == leafAxis {
		*visited += int64(n.end - n.start)
		for _, p := range t.pts[n.start:n.end] {
			d2 := p.Pos.Dist2(c)
			if h.len() < k {
				h.push(p, d2)
			} else if d2 < h.d2[0] || (d2 == h.d2[0] && p.ID < h.pts[0].ID) {
				h.replaceMax(p, d2)
			}
		}
		return
	}
	var leftB, rightB geom.Rect
	var goLeftFirst bool
	if n.axis == 0 {
		leftB, rightB = bounds.SplitX(n.split)
		goLeftFirst = c.X <= n.split
	} else {
		leftB, rightB = bounds.SplitY(n.split)
		goLeftFirst = c.Y <= n.split
	}
	if goLeftFirst {
		t.nearestRec(n.left, c, k, h, leftB, visited)
		t.nearestRec(n.right, c, k, h, rightB, visited)
	} else {
		t.nearestRec(n.right, c, k, h, rightB, visited)
		t.nearestRec(n.left, c, k, h, leftB, visited)
	}
}

// Stats implements Index.
func (t *KDTree) Stats() Stats { return t.stats }

var _ Index = (*KDTree)(nil)

// kdHeap is a small max-heap of candidate nearest points keyed by
// (squared distance, ID) lexicographically; the worst candidate sits at
// index 0.
type kdHeap struct {
	pts []Point
	d2  []float64
}

func (h *kdHeap) len() int { return len(h.pts) }

// worse reports whether candidate i orders after candidate j in the
// (distance, ID) total order.
func (h *kdHeap) worse(i, j int) bool {
	if h.d2[i] != h.d2[j] {
		return h.d2[i] > h.d2[j]
	}
	return h.pts[i].ID > h.pts[j].ID
}

func (h *kdHeap) push(p Point, d2 float64) {
	h.pts = append(h.pts, p)
	h.d2 = append(h.d2, d2)
	i := len(h.pts) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(i, parent) {
			break
		}
		h.swap(parent, i)
		i = parent
	}
}

func (h *kdHeap) replaceMax(p Point, d2 float64) {
	h.pts[0], h.d2[0] = p, d2
	h.siftDown(0)
}

func (h *kdHeap) popMax() Point {
	top := h.pts[0]
	n := len(h.pts) - 1
	h.pts[0], h.d2[0] = h.pts[n], h.d2[n]
	h.pts = h.pts[:n]
	h.d2 = h.d2[:n]
	if n > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *kdHeap) siftDown(i int) {
	n := len(h.pts)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.worse(l, big) {
			big = l
		}
		if r < n && h.worse(r, big) {
			big = r
		}
		if big == i {
			return
		}
		h.swap(i, big)
		i = big
	}
}

func (h *kdHeap) swap(i, j int) {
	h.pts[i], h.pts[j] = h.pts[j], h.pts[i]
	h.d2[i], h.d2[j] = h.d2[j], h.d2[i]
}
