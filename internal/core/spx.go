package core

import (
	"fmt"
	"math"

	"pasp/internal/stats"
)

// SPX extends the simplified parameterization with an overhead *growth
// model*, so it can predict processor counts that were never measured —
// the capability the paper's footnote 3 wishes for ("it would be nice to
// confirm this result on a larger power-aware cluster"). The Eq. 17
// overheads derived at the measured counts are fitted with
//
//	T_PO(N) ≈ β₀ + β₁·N + β₂·log₂N
//
// (constant term: bandwidth-bound volume; linear term: per-neighbour and
// pipeline costs; logarithmic term: tree collectives) and the fit is
// evaluated at any N.
//
// Extrapolation is only as good as the regime it was fitted in: crossing a
// contention knee (FT's alltoall saturating the fabric between 8 and 16
// nodes) breaks it, which the extrapolation experiment quantifies.
type SPX struct {
	sp   *SP
	beta []float64
	fitN []int
}

// overheadBasis evaluates the growth model's basis at a processor count.
func overheadBasis(n int) []float64 {
	return []float64{1, float64(n), math.Log2(float64(n))}
}

// FitSPX fits the extrapolating model from the campaign's configurations
// with 1 < N ≤ maxFitN (0 means all measured counts). At least three such
// counts are required to identify the three-term growth model.
func FitSPX(m *Measurements, maxFitN int) (*SPX, error) {
	sp, err := FitSP(m)
	if err != nil {
		return nil, err
	}
	var rows [][]float64
	var y []float64
	var fitN []int
	for _, n := range m.Ns() {
		if n == 1 || (maxFitN > 0 && n > maxFitN) {
			continue
		}
		tpo, err := sp.Overhead(n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, overheadBasis(n))
		y = append(y, tpo)
		fitN = append(fitN, n)
	}
	if len(rows) < 3 {
		return nil, fmt.Errorf("core: SPX needs ≥ 3 parallel counts to fit, got %d", len(rows))
	}
	beta, err := stats.LeastSquares(rows, y)
	if err != nil {
		return nil, err
	}
	return &SPX{sp: sp, beta: beta, fitN: fitN}, nil
}

// FittedNs returns the processor counts the overhead model was fitted on.
func (x *SPX) FittedNs() []int { return append([]int(nil), x.fitN...) }

// Overhead returns the modelled overhead at any processor count.
func (x *SPX) Overhead(n int) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("core: N = %d", n)
	}
	if n == 1 {
		return 0, nil
	}
	basis := overheadBasis(n)
	t := 0.0
	for i, b := range basis {
		t += x.beta[i] * b
	}
	if t < 0 {
		t = 0
	}
	return t, nil
}

// PredictTime predicts the execution time at any processor count and any
// measured frequency: Eq. 18 with the modelled overhead.
func (x *SPX) PredictTime(n int, mhz float64) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("core: N = %d", n)
	}
	t1, ok := x.sp.t1[mhz]
	if !ok {
		return 0, fmt.Errorf("core: SPX has no sequential time at %g MHz", mhz)
	}
	tpo, err := x.Overhead(n)
	if err != nil {
		return 0, err
	}
	return t1/float64(n) + tpo, nil
}
