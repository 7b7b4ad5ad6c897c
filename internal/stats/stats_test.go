package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestRelError(t *testing.T) {
	cases := []struct {
		pred, meas, want float64
	}{
		{110, 100, 0.10},
		{90, 100, 0.10},
		{100, 100, 0},
		{0, 0, 0},
		{-110, -100, 0.10},
	}
	for _, c := range cases {
		if got := RelError(c.pred, c.meas); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RelError(%g,%g) = %g, want %g", c.pred, c.meas, got, c.want)
		}
	}
	if got := RelError(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelError(1,0) = %g, want +Inf", got)
	}
}

func TestMeanMedianStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty-slice mean should be 0")
	}
}

func TestMaxMin(t *testing.T) {
	if got := Max([]float64{3, -1, 7, 2}); got != 7 {
		t.Errorf("Max = %g, want 7", got)
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("empty Max should be −Inf")
	}
}

// TestLinearFit fits a line through LeastSquares with the basis [1, x].
func TestLinearFit(t *testing.T) {
	line := func(xs []float64) [][]float64 {
		rows := make([][]float64, len(xs))
		for i, x := range xs {
			rows[i] = []float64{1, x}
		}
		return rows
	}
	// y = 2 + 3x exactly.
	beta, err := LeastSquares(line([]float64{0, 1, 2, 3}), []float64{2, 5, 8, 11})
	if err != nil {
		t.Fatalf("line fit: %v", err)
	}
	if math.Abs(beta[0]-2) > 1e-12 || math.Abs(beta[1]-3) > 1e-12 {
		t.Errorf("fit = %v, want [2 3]", beta)
	}
	if _, err := LeastSquares(line([]float64{1}), []float64{1}); err == nil {
		t.Error("line fit with one point succeeded, want error")
	}
	if _, err := LeastSquares(line([]float64{1, 1}), []float64{1, 2}); err == nil {
		t.Error("line fit with degenerate x succeeded, want error")
	}
	if _, err := LeastSquares(line([]float64{1, 2}), []float64{1}); err == nil {
		t.Error("line fit with mismatched lengths succeeded, want error")
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.0213); got != "2.1%" {
		t.Errorf("Percent = %q, want 2.1%%", got)
	}
	if got := Percent(0.78); got != "78.0%" {
		t.Errorf("Percent = %q, want 78.0%%", got)
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(100, 100.5, 0.01) {
		t.Error("100 vs 100.5 at 1% should be equal")
	}
	if AlmostEqual(100, 110, 0.01) {
		t.Error("100 vs 110 at 1% should differ")
	}
	if !AlmostEqual(0, 1e-13, 1e-12) {
		t.Error("near-zero absolute tolerance failed")
	}
}

// Property: RelError is scale-invariant: scaling both arguments by a
// positive constant leaves the error unchanged.
func TestRelErrorScaleInvariantProperty(t *testing.T) {
	f := func(p, m float64, kRaw uint16) bool {
		if math.IsNaN(p) || math.IsNaN(m) || m == 0 ||
			math.Abs(p) > 1e100 || math.Abs(m) > 1e100 || math.Abs(m) < 1e-100 {
			return true // avoid overflow/underflow in k*p, k*m
		}
		k := 1 + float64(kRaw)/100
		return AlmostEqual(RelError(p, m), RelError(k*p, k*m), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Mean is bounded by the minimum and Max.
func TestMeanBoundedProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		return m >= slices.Min(clean)-1e-6 && m <= Max(clean)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// y = 3 + 2n − 0.5·n² fitted with basis [1, n, n²] on 4 points.
	rows := [][]float64{}
	y := []float64{}
	for _, n := range []float64{1, 2, 4, 8} {
		rows = append(rows, []float64{1, n, n * n})
		y = append(y, 3+2*n-0.5*n*n)
	}
	beta, err := LeastSquares(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -0.5}
	for i := range want {
		if !AlmostEqual(beta[i], want[i], 1e-9) {
			t.Errorf("beta[%d] = %g, want %g", i, beta[i], want[i])
		}
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Noisy linear data: the fit must land near the generating line.
	rows := [][]float64{}
	y := []float64{}
	noise := []float64{0.1, -0.1, 0.05, -0.05, 0}
	for i, n := range []float64{1, 2, 3, 4, 5} {
		rows = append(rows, []float64{1, n})
		y = append(y, 10+2*n+noise[i])
	}
	beta, err := LeastSquares(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	if !AlmostEqual(beta[0], 10, 0.02) || !AlmostEqual(beta[1], 2, 0.02) {
		t.Errorf("fit = %v, want ≈ [10 2]", beta)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Error("empty system accepted")
	}
	if _, err := LeastSquares([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("underdetermined system accepted")
	}
	if _, err := LeastSquares([][]float64{{1, 1}, {2, 2}}, []float64{1, 2}); err == nil {
		t.Error("singular system accepted")
	}
	if _, err := LeastSquares([][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows accepted")
	}
}
