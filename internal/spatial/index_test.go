package spatial

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/bigreddata/brace/internal/geom"
)

func randomPoints(rng *rand.Rand, n int, span float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Pos: geom.V(rng.Float64()*span, rng.Float64()*span), ID: int32(i)}
	}
	return pts
}

func collectCircle(ix Index, c geom.Vec, rad float64) []int32 {
	var ids []int32
	ix.RangeCircle(c, rad, func(p Point) { ids = append(ids, p.ID) })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func idsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Every index must agree with the brute-force scan oracle on random disc
// queries — the core correctness property for the Fig. 3/4 comparisons.
func TestIndexesMatchScanOracleCircle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(400)
		base := randomPoints(rng, n, 50)
		oracle := NewScan()
		oracle.Build(append([]Point(nil), base...))
		kd := NewKDTree()
		kd.Build(append([]Point(nil), base...))

		for q := 0; q < 20; q++ {
			c := geom.V(rng.Float64()*50, rng.Float64()*50)
			rad := rng.Float64() * 15
			want := collectCircle(oracle, c, rad)
			if got := collectCircle(kd, c, rad); !idsEqual(got, want) {
				t.Fatalf("kdtree RangeCircle mismatch: got=%v want=%v", got, want)
			}
		}
	}
}

func TestEmptyIndexes(t *testing.T) {
	for _, kind := range []Kind{KindScan, KindKDTree} {
		ix := New(kind)
		ix.Build(nil)
		called := false
		ix.RangeCircle(geom.V(0, 0), 5, func(Point) { called = true })
		if called {
			t.Errorf("%v produced results on empty index", kind)
		}
	}
}

func TestSinglePoint(t *testing.T) {
	for _, kind := range []Kind{KindScan, KindKDTree} {
		ix := New(kind)
		ix.Build([]Point{{Pos: geom.V(2, 3), ID: 7}})
		var got []int32
		ix.RangeCircle(geom.V(2, 3), 0, func(p Point) { got = append(got, p.ID) })
		if len(got) != 1 || got[0] != 7 {
			t.Errorf("%v zero-radius self query = %v", kind, got)
		}
	}
}

func TestDuplicatePositions(t *testing.T) {
	pts := []Point{
		{Pos: geom.V(1, 1), ID: 0},
		{Pos: geom.V(1, 1), ID: 1},
		{Pos: geom.V(1, 1), ID: 2},
		{Pos: geom.V(5, 5), ID: 3},
	}
	for _, kind := range []Kind{KindScan, KindKDTree} {
		ix := New(kind)
		ix.Build(append([]Point(nil), pts...))
		got := collectCircle(ix, geom.V(1, 1), 0.5)
		if !idsEqual(got, []int32{0, 1, 2}) {
			t.Errorf("%v duplicates = %v", kind, got)
		}
	}
}

// The KD-tree must visit asymptotically fewer points than the scan for
// small-range queries — this is the mechanism behind Fig. 3's quadratic vs
// log-linear curves.
func TestKDTreeVisitsFewerThanScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 20000, 1000)
	kd := NewKDTree()
	kd.Build(append([]Point(nil), pts...))
	sc := NewScan()
	sc.Build(append([]Point(nil), pts...))
	for i := 0; i < 100; i++ {
		c := geom.V(rng.Float64()*1000, rng.Float64()*1000)
		kd.RangeCircle(c, 5, func(Point) {})
		sc.RangeCircle(c, 5, func(Point) {})
	}
	kv, sv := kd.Stats().Visited, sc.Stats().Visited
	if kv*10 >= sv {
		t.Errorf("kdtree visited %d vs scan %d; expected >10x reduction", kv, sv)
	}
}

// Kind.String prints the name ParseKind accepts, so a printed kind can be
// fed back to -index or RunSpec.Index; the text form round-trips, the zero
// value is the KD-tree, and nothing outside the vocabulary marshals.
func TestKindString(t *testing.T) {
	for _, k := range []Kind{KindScan, KindKDTree} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
		text, err := k.MarshalText()
		var back Kind
		if err != nil || back.UnmarshalText(text) != nil || back != k {
			t.Errorf("%v: text round trip gave %q, %v -> %v", k, text, err, back)
		}
	}
	var zero Kind
	if zero != KindKDTree || zero.String() != "kd" {
		t.Errorf("zero Kind = %v, want the KD-tree", zero)
	}
	back := KindScan
	if err := back.UnmarshalText(nil); err != nil || back != KindKDTree {
		t.Errorf(`UnmarshalText("") = %v, %v; want kd`, back, err)
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind string")
	}
	var unknown *UnknownKindError
	if _, err := Kind(99).MarshalText(); !errors.As(err, &unknown) {
		t.Errorf("Kind(99).MarshalText() error = %v, want an *UnknownKindError", err)
	}
	if _, err := ParseKind("btree"); !errors.As(err, &unknown) || !strings.Contains(err.Error(), "(kd, scan)") {
		t.Errorf("ParseKind(btree) = %v, want an *UnknownKindError listing kd, scan", err)
	}
}

func TestStatsCounting(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(8)), 100, 10)
	kd := NewKDTree()
	kd.Build(pts)
	kd.RangeCircle(geom.V(5, 5), 2, func(Point) {})
	if kd.Stats().Visited == 0 {
		t.Error("Visited = 0 after a probe")
	}
	kd.Build(pts)
	if v := kd.Stats().Visited; v != 0 {
		t.Errorf("fresh build should reset stats: Visited = %d", v)
	}
}
