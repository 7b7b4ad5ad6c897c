package npb

import (
	"math"
	"testing"

	"pasp/internal/papi"
	"pasp/internal/stats"
)

func TestCGValidate(t *testing.T) {
	ok := CG{Size: 512, OuterIters: 2, CGIters: 10}
	if err := ok.Validate(4); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []struct {
		name string
		c    CG
		n    int
	}{
		{"tiny", CG{Size: 4, OuterIters: 1, CGIters: 1}, 1},
		{"indivisible", CG{Size: 100, OuterIters: 1, CGIters: 1}, 3},
		{"zero outer", CG{Size: 512, CGIters: 1}, 1},
		{"zero inner", CG{Size: 512, OuterIters: 1}, 1},
		{"bad diag", CG{Size: 512, OuterIters: 1, CGIters: 1, Diag: 5}, 1},
		{"band too big", CG{Size: 64, Band: 9, OuterIters: 1, CGIters: 1}, 1},
		{"halo exceeds rows", CG{Size: 512, Band: 8, OuterIters: 1, CGIters: 1}, 16},
		{"neg scale", CG{Size: 512, OuterIters: 1, CGIters: 1, Scale: -1}, 1},
	}
	for _, tc := range bad {
		if err := tc.c.Validate(tc.n); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// The CG solve must reduce the residual: the operator is SPD by
// construction (diagonally dominant, d > 6).
func TestCGConverges(t *testing.T) {
	cg := CG{Size: 512, OuterIters: 2, CGIters: 25}
	res, _, err := cg.Run(npbWorld(1, 600))
	if err != nil {
		t.Fatal(err)
	}
	// ‖x‖ = √512 ≈ 22.6 initially; 25 CG steps on a well-conditioned SPD
	// operator reduce the residual by many orders of magnitude.
	if res.Residual > 1e-6 {
		t.Errorf("final residual %g, want < 1e-6", res.Residual)
	}
	if res.Zeta <= 0 {
		t.Errorf("eigenvalue estimate %g not positive", res.Zeta)
	}
	// ζ estimates 1/λmin-ish quantity: for d=6.5 the smallest eigenvalue of
	// the operator is below d and above d−6 = 0.5, so ζ (= x·z⁻¹ with
	// z = A⁻¹x) lies between those operator bounds too.
	if res.Zeta < 0.4 || res.Zeta > 6.6 {
		t.Errorf("ζ = %g outside the operator's spectral range (0.5, 6.5)", res.Zeta)
	}
}

func TestCGRankInvariance(t *testing.T) {
	cg := CG{Size: 512, OuterIters: 2, CGIters: 15} // 64 rows/rank at N=8 ≥ halo 64
	ref, _, err := cg.Run(npbWorld(1, 600))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 8} {
		got, _, err := cg.Run(npbWorld(n, 600))
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if !stats.AlmostEqual(got.Zeta, ref.Zeta, 1e-9) {
			t.Errorf("N=%d: ζ = %.12g ≠ %.12g", n, got.Zeta, ref.Zeta)
		}
		if !stats.AlmostEqual(got.Residual, ref.Residual, 1e-6) && math.Abs(got.Residual-ref.Residual) > 1e-12 {
			t.Errorf("N=%d: residual %g ≠ %g", n, got.Residual, ref.Residual)
		}
	}
}

// CG's defining profile for the power-aware model: a large OFF-chip share
// (the matrix streams from memory), so frequency scaling helps much less
// than for EP.
func TestCGMemoryBoundProfile(t *testing.T) {
	cg := CG{Size: 512, OuterIters: 1, CGIters: 10}
	_, r, err := cg.Run(npbWorld(1, 600))
	if err != nil {
		t.Fatal(err)
	}
	w, err := r.Counters.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	if frac := w.OffChip() / w.Total(); frac < 0.03 {
		t.Errorf("CG OFF-chip instruction fraction %g too small", frac)
	}
	_, fast, err := cg.Run(npbWorld(1, 1400))
	if err != nil {
		t.Fatal(err)
	}
	speedup := r.Seconds / fast.Seconds
	if speedup >= 2.0 {
		t.Errorf("CG frequency speedup %g too close to linear 2.33; memory boundedness lost", speedup)
	}
	if speedup <= 1.05 {
		t.Errorf("CG frequency speedup %g implausibly flat", speedup)
	}
}

func TestCGCommunicationProfile(t *testing.T) {
	cg := CG{Size: 256, OuterIters: 1, CGIters: 10}
	_, r, err := cg.Run(npbWorld(4, 600))
	if err != nil {
		t.Fatal(err)
	}
	by := r.Trace.ByPhase()
	if by["cg-halo"] <= 0 {
		t.Fatalf("no halo-exchange time: %v", by)
	}
	// Per CG step: 2 halo messages + 3 allreduces; messages must be recorded.
	if r.PerRank[0].Msgs == 0 {
		t.Error("no messages profiled")
	}
}

func TestCGScaleMultipliesWork(t *testing.T) {
	base := CG{Size: 256, OuterIters: 1, CGIters: 5}
	scaled := base
	scaled.Scale = 8
	_, rb, err := base.Run(npbWorld(2, 600))
	if err != nil {
		t.Fatal(err)
	}
	_, rs, err := scaled.Run(npbWorld(2, 600))
	if err != nil {
		t.Fatal(err)
	}
	ratio := rs.Counters.Get(papi.TotIns) / rb.Counters.Get(papi.TotIns)
	if !stats.AlmostEqual(ratio, 8, 0.01) {
		t.Errorf("TOT_INS ratio %g, want 8", ratio)
	}
	if rs.Seconds <= rb.Seconds {
		t.Error("scaled run not slower")
	}
}

func TestCGDeterministic(t *testing.T) {
	cg := CG{Size: 256, OuterIters: 1, CGIters: 8}
	_, a, err := cg.Run(npbWorld(4, 1000))
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := cg.Run(npbWorld(4, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds || a.Joules != b.Joules {
		t.Error("CG timing not deterministic")
	}
}

// The operator must be symmetric: x·(A y) = y·(A x) for arbitrary vectors —
// the property CG's convergence theory requires.
func TestCGOperatorSymmetric(t *testing.T) {
	cg := CG{Size: 128, OuterIters: 1, CGIters: 1}
	if err := cg.Validate(1); err != nil {
		t.Fatal(err)
	}
	// Evaluate the band operator directly, mirroring spmv's formula.
	apply := func(x []float64) []float64 {
		n, b, d := cg.Size, cg.band(), cg.diag()
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			v := d * x[i]
			for _, off := range []int{1, b, b * b} {
				if i-off >= 0 {
					v -= x[i-off]
				}
				if i+off < n {
					v -= x[i+off]
				}
			}
			y[i] = v
		}
		return y
	}
	rng := newRandlc(123)
	x := make([]float64, cg.Size)
	y := make([]float64, cg.Size)
	for _, v := range [][]float64{x, y} {
		for i := range v {
			v[i] = rng.next()
		}
	}
	dot := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	if lhs, rhs := dot(x, apply(y)), dot(y, apply(x)); !stats.AlmostEqual(lhs, rhs, 1e-9) {
		t.Errorf("operator asymmetric: %g vs %g", lhs, rhs)
	}
}
