package core

import (
	"testing"

	"pasp/internal/stats"
)

func TestSPFitExactOnAssumptionSatisfyingWorkload(t *testing.T) {
	// A workload that satisfies both SP assumptions — fully parallelizable,
	// frequency-insensitive overhead — is predicted exactly at every cell.
	po := func(n int) float64 { return 0.25 * float64(n) }
	m := synthetic(10, 5, po)
	sp, err := FitSP(m)
	if err != nil {
		t.Fatal(err)
	}
	if sp.baseMHz != 600 {
		t.Errorf("base = %g, want 600", sp.baseMHz)
	}
	for _, n := range m.Ns() {
		for _, mhz := range m.Freqs() {
			pred, err := sp.PredictTime(n, mhz)
			if err != nil {
				t.Fatal(err)
			}
			meas, _ := m.Time(n, mhz)
			if !stats.AlmostEqual(pred, meas, 1e-9) {
				t.Errorf("N=%d f=%g: predicted %g, measured %g", n, mhz, pred, meas)
			}
		}
	}
}

func TestSPOverheadDerivation(t *testing.T) {
	// Eq. 17 must recover the injected overhead exactly.
	po := func(n int) float64 { return 0.1 * float64(n*n) }
	m := synthetic(20, 0, po)
	sp, err := FitSP(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4, 8, 16} {
		got, err := sp.Overhead(n)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.AlmostEqual(got, po(n), 1e-9) {
			t.Errorf("N=%d: derived overhead %g, want %g", n, got, po(n))
		}
	}
	if got, _ := sp.Overhead(1); got != 0 {
		t.Errorf("N=1 overhead = %g, want 0", got)
	}
}

func TestSPUnderestimatesFrequencySensitiveOverhead(t *testing.T) {
	// Violate Assumption 2: make the overhead partly ON-chip (frequency
	// sensitive). SP derives overhead at the base gear and assumes it
	// constant, so it over-predicts the time at high frequency.
	m := NewMeasurements()
	for _, n := range []int{1, 2, 4} {
		for _, mhz := range []float64{600, 1400} {
			r := 600 / mhz
			t0 := 12.0 * r / float64(n) // compute, scales with f
			if n > 1 {
				t0 += 2 * r // overhead that also scales with f
			}
			m.SetTime(n, mhz, t0)
		}
	}
	sp, err := FitSP(m)
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := sp.PredictTime(4, 1400)
	meas, _ := m.Time(4, 1400)
	if pred <= meas {
		t.Errorf("SP should over-predict time here: %g vs %g", pred, meas)
	}
}

func TestSPPredictSpeedupAgainstBase(t *testing.T) {
	m := synthetic(10, 5, func(n int) float64 { return 0.5 })
	sp, err := FitSP(m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sp.PredictSpeedup(1, 600)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(s, 1, 1e-12) {
		t.Errorf("base speedup prediction %g, want 1", s)
	}
	s16, err := sp.PredictSpeedup(16, 1400)
	if err != nil {
		t.Fatal(err)
	}
	meas, _ := m.Speedup(16, 1400)
	if !stats.AlmostEqual(s16, meas, 1e-9) {
		t.Errorf("N=16@1400: predicted %g, measured %g", s16, meas)
	}
}

func TestSPFitRequiresSlices(t *testing.T) {
	m := NewMeasurements()
	m.SetTime(2, 600, 5) // no sequential run at all
	if _, err := FitSP(m); err == nil {
		t.Error("fit without T(1, f0) succeeded")
	}

	m2 := NewMeasurements()
	m2.SetTime(1, 600, 10)
	m2.SetTime(1, 800, 8)
	m2.SetTime(2, 800, 4) // missing the base-frequency parallel run
	if _, err := FitSP(m2); err == nil {
		t.Error("fit without base-frequency column succeeded")
	}
}

func TestSPPredictUnknownCells(t *testing.T) {
	m := synthetic(10, 5, nil)
	sp, err := FitSP(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.PredictTime(3, 600); err == nil {
		t.Error("unfitted N accepted")
	}
	if _, err := sp.PredictTime(2, 700); err == nil {
		t.Error("unfitted frequency accepted")
	}
}
