package core

import "fmt"

// SP is the simplified parameterization of Section 5.1. It makes two
// assumptions — the workload is fully parallelizable (Assumption 1) and
// parallel overhead is unaffected by ON-chip frequency (Assumption 2) —
// under which the parallel time obeys Eq. 16:
//
//	T_N(w, f) = T_1(w, f)/N + T(wPO_OFF)
//
// The model is fitted from two measured slices of the configuration grid
// (the base-frequency column and the one-processor row) and predicts every
// other cell.
type SP struct {
	baseMHz float64
	t1      map[float64]float64 // Step 3: T_1(w, f) per frequency
	tpo     map[int]float64     // Step 2: overhead per processor count (Eq. 17)
}

// FitSP derives the model from a measurement campaign: Step 1 uses the
// parallel times at the base frequency, Step 2 derives each N's overhead
// via Eq. 17, Step 3 collects the sequential times per frequency.
func FitSP(m *Measurements) (*SP, error) {
	base, err := m.BaseMHz()
	if err != nil {
		return nil, err
	}
	sp := &SP{baseMHz: base, t1: map[float64]float64{}, tpo: map[int]float64{}}
	t1base, err := m.Time(1, base)
	if err != nil {
		return nil, fmt.Errorf("core: SP fit needs T(1, f0): %w", err)
	}
	for _, mhz := range m.Freqs() {
		t1, err := m.Time(1, mhz)
		if err != nil {
			return nil, fmt.Errorf("core: SP fit needs the full 1-processor row: %w", err)
		}
		sp.t1[mhz] = t1
	}
	for _, n := range m.Ns() {
		if n < 1 {
			return nil, fmt.Errorf("core: measured processor count N = %d", n)
		}
		tn, err := m.Time(n, base)
		if err != nil {
			return nil, fmt.Errorf("core: SP fit needs the full base-frequency column: %w", err)
		}
		// Eq. 17: T(wPO_OFF) = T_N(w, f0) − T_1(w, f0)/N.
		sp.tpo[n] = tn - t1base/float64(n)
	}
	return sp, nil
}

// Overhead returns the derived parallel-overhead time T(wPO_OFF) for n
// processors (Eq. 17). The derivation can come out slightly negative when
// the workload scales superlinearly (cache effects); the value is reported
// as derived, since Eq. 18 consumes it unchanged.
func (s *SP) Overhead(n int) (float64, error) {
	t, ok := s.tpo[n]
	if !ok {
		return 0, fmt.Errorf("core: SP has no overhead for N=%d", n)
	}
	return t, nil
}

// PredictTime evaluates Eq. 18: T_N(w, f) = T_1(w, f)/N + T(wPO_OFF).
func (s *SP) PredictTime(n int, mhz float64) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("core: N = %d", n)
	}
	t1, ok := s.t1[mhz]
	if !ok {
		return 0, fmt.Errorf("core: SP has no sequential time at %g MHz", mhz)
	}
	tpo, err := s.Overhead(n)
	if err != nil {
		return 0, err
	}
	return t1/float64(n) + tpo, nil
}

// PredictSpeedup predicts the power-aware speedup of a configuration:
// T_1(w, f0) divided by the Eq. 18 time.
func (s *SP) PredictSpeedup(n int, mhz float64) (float64, error) {
	t1, ok := s.t1[s.baseMHz]
	if !ok {
		return 0, fmt.Errorf("core: SP missing base sequential time")
	}
	tn, err := s.PredictTime(n, mhz)
	if err != nil {
		return 0, err
	}
	if tn <= 0 {
		return 0, fmt.Errorf("core: SP predicted non-positive time for %v", Config{n, mhz})
	}
	return t1 / tn, nil
}
