package core

import (
	"math"
	"testing"
	"testing/quick"

	"pasp/internal/stats"
)

func TestAmdahlLimits(t *testing.T) {
	if s, _ := Amdahl(0, 10); s != 1 {
		t.Errorf("FE=0 speedup %g, want 1", s)
	}
	if s, _ := Amdahl(1, 10); s != 10 {
		t.Errorf("FE=1 speedup %g, want SE=10", s)
	}
	// Classic: 95% parallel, N→∞ caps at 20.
	s, _ := Amdahl(0.95, 1e12)
	if !stats.AlmostEqual(s, 20, 1e-6) {
		t.Errorf("asymptote %g, want 20", s)
	}
}

func TestAmdahlErrors(t *testing.T) {
	if _, err := Amdahl(-0.1, 2); err == nil {
		t.Error("negative FE accepted")
	}
	if _, err := Amdahl(1.1, 2); err == nil {
		t.Error("FE>1 accepted")
	}
	if _, err := Amdahl(0.5, 0); err == nil {
		t.Error("zero SE accepted")
	}
}

func TestGeneralizedAmdahlIsProduct(t *testing.T) {
	enh := []Enhancement{{FE: 0.9, SE: 4}, {FE: 0.5, SE: 2.33}}
	got, err := GeneralizedAmdahl(enh)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Amdahl(0.9, 4)
	b, _ := Amdahl(0.5, 2.33)
	if !stats.AlmostEqual(got, a*b, 1e-12) {
		t.Errorf("generalized %g ≠ product %g", got, a*b)
	}
	if _, err := GeneralizedAmdahl(nil); err == nil {
		t.Error("empty enhancement list accepted")
	}
}

func TestProductSpeedupOverPredictsWithOverhead(t *testing.T) {
	// On a workload with parallel overhead, the Eq. 3 product prediction
	// must over-predict the measured combined speedup — the Table 1 errors.
	m := synthetic(10, 5, func(n int) float64 { return 0.3 * float64(n) })
	pred, err := ProductSpeedup(m, 16, 1400)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := m.Speedup(16, 1400)
	if err != nil {
		t.Fatal(err)
	}
	if pred <= meas {
		t.Errorf("product prediction %g not above measured %g", pred, meas)
	}
}

func TestProductSpeedupExactWithoutInteraction(t *testing.T) {
	// A pure ON-chip, overhead-free workload has independent enhancements,
	// so the product rule is exact (the EP case).
	m := synthetic(10, 0, nil)
	pred, _ := ProductSpeedup(m, 8, 1200)
	meas, _ := m.Speedup(8, 1200)
	if !stats.AlmostEqual(pred, meas, 1e-9) {
		t.Errorf("product %g ≠ measured %g on EP-like workload", pred, meas)
	}
}

func TestKarpFlattRecoversSerialFraction(t *testing.T) {
	// Generate speedups from Amdahl with serial fraction 0.1 and recover it.
	serial := 0.1
	for _, n := range []int{2, 4, 8, 16} {
		s := 1 / (serial + (1-serial)/float64(n))
		f, err := KarpFlatt(s, n)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.AlmostEqual(f, serial, 1e-9) {
			t.Errorf("N=%d: Karp–Flatt %g, want %g", n, f, serial)
		}
	}
	if _, err := KarpFlatt(2, 1); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := KarpFlatt(0, 4); err == nil {
		t.Error("zero speedup accepted")
	}
}

// Property: Amdahl speedup is bounded by the enhancement factor and at
// least min(1, se).
func TestAmdahlBoundsProperty(t *testing.T) {
	f := func(feRaw, seRaw uint16) bool {
		fe := float64(feRaw) / 65535
		se := 0.1 + float64(seRaw)/100
		s, err := Amdahl(fe, se)
		if err != nil {
			return false
		}
		lo, hi := math.Min(1, se), math.Max(1, se)
		return s >= lo-1e-12 && s <= hi+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
