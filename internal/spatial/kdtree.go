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

// Build indexes pts. It takes ownership of pts (the slice is
// reordered in place during median partitioning).
func (t *KDTree) Build(pts []Point) {
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

// RangeCircleInto implements Index with an explicit stack (no recursion
// overhead): prune by the circumscribing square, filter candidates by exact
// distance.
func (t *KDTree) RangeCircleInto(c geom.Vec, rad float64, dst []int32) ([]int32, int64) {
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

var _ Index = (*KDTree)(nil)
