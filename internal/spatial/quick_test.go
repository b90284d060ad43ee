package spatial

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/bigreddata/brace/internal/geom"
)

// pointSet generates random point sets for testing/quick.
type pointSet struct {
	Pts []Point
}

// Generate implements quick.Generator.
func (pointSet) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(size*8 + 1)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			Pos: geom.V(rng.Float64()*100-50, rng.Float64()*100-50),
			ID:  int32(i),
		}
	}
	return reflect.ValueOf(pointSet{pts})
}

// Property: for any point set and any query circle, the KD-tree returns
// exactly the brute-force answer.
func TestQuickKDTreeRangeCircleMatchesOracle(t *testing.T) {
	f := func(ps pointSet, cx, cy, r float64) bool {
		cx = clampF(cx, -60, 60)
		cy = clampF(cy, -60, 60)
		r = clampF(absF(r), 0, 80)
		kd := NewKDTree()
		kd.Build(append([]Point(nil), ps.Pts...))
		sc := NewScan()
		sc.Build(append([]Point(nil), ps.Pts...))
		return idsEqual(
			collectCircle(kd, geom.V(cx, cy), r),
			collectCircle(sc, geom.V(cx, cy), r),
		)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: Build preserves the point multiset (reordering only).
func TestQuickKDTreeBuildPreservesPoints(t *testing.T) {
	f := func(ps pointSet) bool {
		buf := append([]Point(nil), ps.Pts...)
		kd := NewKDTree()
		kd.Build(buf)
		got := make([]int32, len(buf))
		for i, p := range buf {
			got[i] = p.ID
		}
		want := make([]int32, len(ps.Pts))
		for i, p := range ps.Pts {
			want[i] = p.ID
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		return idsEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a disc covering the whole generated plane returns every point.
func TestQuickRangeEverythingReturnsAll(t *testing.T) {
	f := func(ps pointSet) bool {
		for _, ix := range plainIndexes() {
			ix.Build(append([]Point(nil), ps.Pts...))
			if got, _ := ix.RangeCircleInto(geom.V(0, 0), 1e6, nil); len(got) != len(ps.Pts) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func clampF(x, lo, hi float64) float64 {
	if x != x { // NaN
		return lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
