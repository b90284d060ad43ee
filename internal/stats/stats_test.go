package stats

import (
	"math"
	"strings"
	"testing"
)

func TestRMSPEExact(t *testing.T) {
	got, err := RMSPE([]float64{10, 20}, []float64{11, 18})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt((0.1*0.1 + 0.1*0.1) / 2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RMSPE = %v, want %v", got, want)
	}
}

func TestRMSPEPerfectFit(t *testing.T) {
	got, err := RMSPE([]float64{1, 2, 3}, []float64{1, 2, 3})
	if err != nil || got != 0 {
		t.Errorf("RMSPE perfect = %v, %v", got, err)
	}
}

func TestRMSPESkipsZeroRef(t *testing.T) {
	got, err := RMSPE([]float64{0, 10}, []float64{5, 12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.2) > 1e-12 {
		t.Errorf("RMSPE = %v, want 0.2", got)
	}
}

func TestRMSPEErrors(t *testing.T) {
	if _, err := RMSPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := RMSPE([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("all-zero reference accepted")
	}
	if _, err := RMSPE(nil, nil); err == nil {
		t.Error("empty series accepted")
	}
}

func TestSeriesAndTable(t *testing.T) {
	a := &Series{Label: "idx"}
	b := &Series{Label: "noidx"}
	a.Add(1, 10)
	a.Add(2, 20)
	b.Add(1, 30)
	out := Table("Fig X", "n", a, b)
	if !strings.Contains(out, "# Fig X") || !strings.Contains(out, "idx") {
		t.Errorf("table missing headers:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("missing marker for absent sample:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, 2 rows
		t.Errorf("table rows = %d:\n%s", len(lines), out)
	}
}

func TestMonotoneIncreasing(t *testing.T) {
	if !MonotoneIncreasing([]float64{1, 2, 3, 3.9}, 0.1) {
		t.Error("increasing series rejected")
	}
	if MonotoneIncreasing([]float64{1, 2, 1.0}, 0.1) {
		t.Error("collapsing series accepted")
	}
	if !MonotoneIncreasing([]float64{1, 0.95}, 0.1) {
		t.Error("within-tolerance dip rejected")
	}
	if !MonotoneIncreasing(nil, 0) {
		t.Error("empty series should be monotone")
	}
}

func TestGrowthExponent(t *testing.T) {
	var xs, ys, ys2 []float64
	for _, x := range []float64{100, 200, 400, 800} {
		xs = append(xs, x)
		ys = append(ys, 3*x*x) // quadratic
		ys2 = append(ys2, 5*x) // linear
	}
	k, err := GrowthExponent(xs, ys)
	if err != nil || math.Abs(k-2) > 1e-9 {
		t.Errorf("quadratic exponent = %v, %v", k, err)
	}
	k, err = GrowthExponent(xs, ys2)
	if err != nil || math.Abs(k-1) > 1e-9 {
		t.Errorf("linear exponent = %v, %v", k, err)
	}
	if _, err := GrowthExponent([]float64{1}, []float64{1}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := GrowthExponent([]float64{1, -1}, []float64{1, 1}); err == nil {
		t.Error("negative sample accepted")
	}
	if _, err := GrowthExponent([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate x accepted")
	}
}
