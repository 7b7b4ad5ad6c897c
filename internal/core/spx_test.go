package core

import (
	"testing"

	"pasp/internal/stats"
)

func TestSPXExactOnModelFamily(t *testing.T) {
	// Overhead exactly in the basis family: 0.5 + 0.1·N + 0.3·log₂N.
	po := func(n int) float64 {
		return 0.5 + 0.1*float64(n) + 0.3*float64(log2i(n))
	}
	m := synthetic(10, 5, po)
	x, err := FitSPX(m, 8) // fit on N ∈ {2, 4, 8}; 16 held out
	if err != nil {
		t.Fatal(err)
	}
	if got := x.FittedNs(); len(got) != 3 || got[2] != 8 {
		t.Errorf("fitted Ns = %v", got)
	}
	// Extrapolate to the held-out N=16 at every frequency.
	for _, mhz := range m.Freqs() {
		pred, err := x.PredictTime(16, mhz)
		if err != nil {
			t.Fatal(err)
		}
		meas, _ := m.Time(16, mhz)
		if !stats.AlmostEqual(pred, meas, 1e-9) {
			t.Errorf("N=16 @ %g MHz: predicted %g, measured %g", mhz, pred, meas)
		}
	}
	// And far beyond the measured range.
	t1, _ := m.Time(1, 600)
	t64, err := x.PredictTime(64, 1400)
	if err != nil {
		t.Fatal(err)
	}
	if s64 := t1 / t64; s64 <= 0 || s64 > 64*1400.0/600 {
		t.Errorf("N=64 speedup %g outside sane bounds", s64)
	}
}

// log2i is an integer log₂ for exact test arithmetic.
func log2i(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

func TestSPXNeedsThreeCounts(t *testing.T) {
	m := NewMeasurements()
	for _, n := range []int{1, 2, 4} {
		for _, f := range []float64{600, 1400} {
			m.SetTime(n, f, 10/float64(n)*600/f+1)
		}
	}
	if _, err := FitSPX(m, 0); err == nil {
		t.Error("fit with two parallel counts accepted")
	}
}

func TestSPXOverheadClampedNonNegative(t *testing.T) {
	// A decreasing overhead trend extrapolates negative; the clamp keeps
	// predicted times physical.
	m := NewMeasurements()
	for _, n := range []int{1, 2, 4, 8} {
		for _, f := range []float64{600, 1400} {
			po := 0.0
			if n > 1 {
				po = 3.0 / float64(n) // shrinking overhead
			}
			m.SetTime(n, f, 10/float64(n)*600/f+po)
		}
	}
	x, err := FitSPX(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	tpo, err := x.Overhead(1024)
	if err != nil {
		t.Fatal(err)
	}
	if tpo < 0 {
		t.Errorf("overhead %g negative", tpo)
	}
	tm, err := x.PredictTime(1024, 600)
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Errorf("predicted time %g not positive", tm)
	}
}

func TestSPXUnknownFrequency(t *testing.T) {
	m := synthetic(10, 5, func(n int) float64 { return float64(n) })
	x, err := FitSPX(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.PredictTime(16, 700); err == nil {
		t.Error("unmeasured frequency accepted")
	}
	if _, err := x.Overhead(0); err == nil {
		t.Error("N=0 accepted")
	}
	if got, _ := x.Overhead(1); got != 0 {
		t.Errorf("N=1 overhead %g, want 0", got)
	}
}
