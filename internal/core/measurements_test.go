package core

import (
	"testing"

	"pasp/internal/stats"
)

// synthetic fills a campaign with times obeying the Eq. 16 form
// T(n, f) = onChip·(600/f)/n + offChip/n + po(n), a workload the SP model
// can predict exactly.
func synthetic(onChip, offChip float64, po func(int) float64) *Measurements {
	m := NewMeasurements()
	for _, n := range []int{1, 2, 4, 8, 16} {
		for _, mhz := range []float64{600, 800, 1000, 1200, 1400} {
			t := onChip*(600/mhz)/float64(n) + offChip/float64(n)
			if n > 1 && po != nil {
				t += po(n)
			}
			m.SetTime(n, mhz, t)
		}
	}
	return m
}

func TestMeasurementsRoundTrip(t *testing.T) {
	m := NewMeasurements()
	m.SetTime(4, 800, 3.5)
	m.SetEnergy(4, 800, 420)
	got, err := m.Time(4, 800)
	if err != nil || got != 3.5 {
		t.Errorf("Time = %g, %v", got, err)
	}
	e, err := m.Energy(4, 800)
	if err != nil || e != 420 {
		t.Errorf("Energy = %g, %v", e, err)
	}
	if _, err := m.Time(2, 800); err == nil {
		t.Error("missing time returned without error")
	}
	if _, err := m.Energy(4, 600); err == nil {
		t.Error("missing energy returned without error")
	}
	edp, err := m.EDP(4, 800)
	if err != nil || edp != 3.5*420 {
		t.Errorf("EDP = %g, %v", edp, err)
	}
}

func TestAxesSorted(t *testing.T) {
	m := NewMeasurements()
	m.SetTime(8, 1400, 1)
	m.SetTime(1, 600, 10)
	m.SetTime(4, 1000, 2)
	ns := m.Ns()
	if len(ns) != 3 || ns[0] != 1 || ns[2] != 8 {
		t.Errorf("Ns = %v", ns)
	}
	fs := m.Freqs()
	if len(fs) != 3 || fs[0] != 600 || fs[2] != 1400 {
		t.Errorf("Freqs = %v", fs)
	}
	base, err := m.BaseMHz()
	if err != nil || base != fs[0] {
		t.Errorf("BaseMHz = %g, %v; Freqs()[0] = %g", base, err, fs[0])
	}
	// BaseMHz runs once per Speedup, so once per row of a served sweep: it
	// finds f0 without building the axis.
	if a := testing.AllocsPerRun(100, func() { _, _ = m.BaseMHz() }); a != 0 {
		t.Errorf("BaseMHz allocates %g times per call, want 0", a)
	}
}

func TestBaseMHzEmptyErrors(t *testing.T) {
	if _, err := NewMeasurements().BaseMHz(); err == nil {
		t.Error("empty campaign BaseMHz succeeded")
	}
}

func TestSpeedupDefinition(t *testing.T) {
	m := NewMeasurements()
	m.SetTime(1, 600, 100)
	m.SetTime(16, 1400, 2.74) // paper's EP: speedup ≈ 36.5
	s, err := m.Speedup(16, 1400)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(s, 100/2.74, 1e-12) {
		t.Errorf("speedup = %g", s)
	}
	if s, _ := m.Speedup(1, 600); s != 1 {
		t.Errorf("base speedup = %g, want 1", s)
	}
}

func TestSpeedupNeedsBaseRun(t *testing.T) {
	m := NewMeasurements()
	m.SetTime(2, 600, 5)
	if _, err := m.Speedup(2, 600); err == nil {
		t.Error("speedup without T(1, f0) succeeded")
	}
}

func TestSyntheticHelperShape(t *testing.T) {
	m := synthetic(10, 5, func(n int) float64 { return 0.1 * float64(n) })
	// Base point: 10 + 5 = 15 s.
	t1, _ := m.Time(1, 600)
	if t1 != 15 {
		t.Errorf("T(1,600) = %g, want 15", t1)
	}
	// Frequency speedup at N=1 is sublinear: on-chip scales, off-chip does not.
	s, _ := m.Speedup(1, 1400)
	if s <= 1 || s >= 1400.0/600 {
		t.Errorf("synthetic frequency speedup %g not in (1, 2.33)", s)
	}
}
