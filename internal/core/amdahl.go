package core

import "fmt"

// Amdahl returns the speedup of the paper's Eq. 2: a workload of which
// fraction fe benefits from an enhancement with speedup factor se.
func Amdahl(fe, se float64) (float64, error) {
	if fe < 0 || fe > 1 {
		return 0, fmt.Errorf("core: enhanced fraction %g outside [0,1]", fe)
	}
	if se <= 0 {
		return 0, fmt.Errorf("core: enhancement speedup %g not positive", se)
	}
	return 1 / ((1 - fe) + fe/se), nil
}

// Enhancement is one (fraction, factor) pair of Eq. 3.
type Enhancement struct {
	// FE is the fraction of the workload the enhancement applies to.
	FE float64
	// SE is the speedup factor on that fraction.
	SE float64
}

// GeneralizedAmdahl returns the speedup of Eq. 3 for e simultaneous
// enhancements: the product of the individual Amdahl speedups. The paper's
// motivating example shows this over-predicts on power-aware clusters
// because it assumes the enhancements are independent.
func GeneralizedAmdahl(enh []Enhancement) (float64, error) {
	if len(enh) == 0 {
		return 0, fmt.Errorf("core: no enhancements")
	}
	s := 1.0
	for i, e := range enh {
		se, err := Amdahl(e.FE, e.SE)
		if err != nil {
			return 0, fmt.Errorf("core: enhancement %d: %w", i, err)
		}
		s *= se
	}
	return s, nil
}

// ProductSpeedup is the Table 1 predictor: applying Eq. 3 by measuring the
// two enhancements independently — S(N, f0) along the processor-count axis
// and S(1, f) along the frequency axis — and multiplying. Errors against
// measured S(N, f) quantify how interdependent the enhancements are.
func ProductSpeedup(m *Measurements, n int, mhz float64) (float64, error) {
	base, err := m.BaseMHz()
	if err != nil {
		return 0, err
	}
	sn, err := m.Speedup(n, base)
	if err != nil {
		return 0, err
	}
	sf, err := m.Speedup(1, mhz)
	if err != nil {
		return 0, err
	}
	return sn * sf, nil
}

// KarpFlatt returns the experimentally determined serial fraction of Karp
// and Flatt (related work [25]): f = (1/S − 1/N) / (1 − 1/N). Larger
// fractions at larger N diagnose growing parallel overhead.
func KarpFlatt(speedup float64, n int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("core: Karp–Flatt needs N ≥ 2, got %d", n)
	}
	if speedup <= 0 {
		return 0, fmt.Errorf("core: non-positive speedup %g", speedup)
	}
	invN := 1 / float64(n)
	return (1/speedup - invN) / (1 - invN), nil
}
