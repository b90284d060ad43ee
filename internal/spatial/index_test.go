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
	ids, _ := ix.RangeCircleInto(c, rad, nil)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// builtIndex is an index built from a caller's point set.
type builtIndex interface {
	Index
	Build(pts []Point)
}

// plainIndexes returns one empty index of each point-set type.
func plainIndexes() []builtIndex { return []builtIndex{NewScan(), NewKDTree()} }

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
	for _, ix := range plainIndexes() {
		ix.Build(nil)
		if got, _ := ix.RangeCircleInto(geom.V(0, 0), 5, nil); len(got) != 0 {
			t.Errorf("%T produced results on empty index: %v", ix, got)
		}
	}
}

func TestSinglePoint(t *testing.T) {
	for _, ix := range plainIndexes() {
		ix.Build([]Point{{Pos: geom.V(2, 3), ID: 7}})
		if got := collectCircle(ix, geom.V(2, 3), 0); len(got) != 1 || got[0] != 7 {
			t.Errorf("%T zero-radius self query = %v", ix, got)
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
	for _, ix := range plainIndexes() {
		ix.Build(append([]Point(nil), pts...))
		got := collectCircle(ix, geom.V(1, 1), 0.5)
		if !idsEqual(got, []int32{0, 1, 2}) {
			t.Errorf("%T duplicates = %v", ix, got)
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
	var kv, sv int64
	for i := 0; i < 100; i++ {
		c := geom.V(rng.Float64()*1000, rng.Float64()*1000)
		_, v := kd.RangeCircleInto(c, 5, nil)
		kv += v
		_, v = sc.RangeCircleInto(c, 5, nil)
		sv += v
	}
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

// A probe reports its own visits, appends after what dst already holds,
// and a scan visits every point.
func TestStatsCounting(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(8)), 100, 10)
	kd := NewKDTree()
	kd.Build(append([]Point(nil), pts...))
	got, v := kd.RangeCircleInto(geom.V(5, 5), 2, []int32{-1})
	if v == 0 || v > int64(len(pts)) || got[0] != -1 || int64(len(got)-1) > v {
		t.Errorf("kd probe: %d results after the prefix, %d visited", len(got)-1, v)
	}
	sc := NewScan()
	sc.Build(pts)
	if _, v := sc.RangeCircleInto(geom.V(5, 5), 2, nil); v != int64(len(pts)) {
		t.Errorf("scan visited %d, want all %d", v, len(pts))
	}
}
