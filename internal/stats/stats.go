// Package stats provides the small numeric helpers the experiment harness
// uses to summarize simulated measurements and model predictions: relative
// errors, means, extrema, and linear least squares for parameter fitting.
package stats

import (
	"fmt"
	"math"
)

// RelError returns |predicted−measured| / |measured|, the error metric used
// throughout the paper's Tables 1, 3 and 7. It returns +Inf when measured is
// zero and predicted is not, and 0 when both are zero.
func RelError(predicted, measured float64) float64 {
	if measured == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(predicted-measured) / math.Abs(measured)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs, or −Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percent formats a fraction as a percentage string with one decimal, e.g.
// 0.0213 → "2.1%". The paper's error tables are printed this way.
func Percent(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}

// AlmostEqual reports whether a and b agree to within tol relative error
// (absolute error for values near zero). It is the comparison helper the
// test suites use for floating-point assertions.
func AlmostEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// LeastSquares solves the overdetermined system rows·β ≈ y by normal
// equations with Gaussian elimination (partial pivoting). Each row holds
// the basis-function values of one observation. It returns an error when
// there are fewer observations than coefficients or the system is
// singular.
func LeastSquares(rows [][]float64, y []float64) ([]float64, error) {
	m := len(rows)
	if m == 0 || m != len(y) {
		return nil, fmt.Errorf("stats: LeastSquares needs matching rows and targets, got %d/%d", m, len(y))
	}
	k := len(rows[0])
	if k == 0 || m < k {
		return nil, fmt.Errorf("stats: LeastSquares has %d observations for %d coefficients", m, k)
	}
	// Normal equations: (XᵀX)β = Xᵀy.
	a := make([][]float64, k)
	b := make([]float64, k)
	for i := 0; i < k; i++ {
		a[i] = make([]float64, k)
	}
	for r, row := range rows {
		if len(row) != k {
			return nil, fmt.Errorf("stats: LeastSquares row %d has %d values, want %d", r, len(row), k)
		}
		for i := 0; i < k; i++ {
			b[i] += row[i] * y[r]
			for j := 0; j < k; j++ {
				a[i][j] += row[i] * row[j]
			}
		}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < k; col++ {
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, fmt.Errorf("stats: LeastSquares singular system at column %d", col)
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < k; r++ {
			f := a[r][col] / a[col][col]
			for j := col; j < k; j++ {
				a[r][j] -= f * a[col][j]
			}
			b[r] -= f * b[col]
		}
	}
	beta := make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < k; j++ {
			s -= a[i][j] * beta[j]
		}
		beta[i] = s / a[i][i]
	}
	return beta, nil
}
