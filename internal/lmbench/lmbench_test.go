package lmbench

import (
	"testing"

	"pasp/internal/machine"
	"pasp/internal/stats"
	"pasp/internal/units"
)

func TestLatencyPlateaus(t *testing.T) {
	m := machine.PentiumM()
	f := units.GHz(1)
	l1, err := Latency(m, f, m.L1Bytes/2)
	if err != nil {
		t.Fatal(err)
	}
	wantL1 := m.SecPerIns(machine.L1, f).Nanos()
	if !stats.AlmostEqual(float64(l1), float64(wantL1), 0.05) {
		t.Errorf("L1 plateau %g ns, want ≈ %g ns", float64(l1), float64(wantL1))
	}
	mem, err := Latency(m, f, 4*m.L2Bytes)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(float64(mem), float64(m.MemNanos(f)), 0.05) {
		t.Errorf("memory plateau %g ns, want ≈ %g ns", float64(mem), float64(m.MemNanos(f)))
	}
}

func TestSweepMonotoneAcrossLevels(t *testing.T) {
	m := machine.PentiumM()
	// A doubling working-set schedule from 1 KiB to 8 MiB.
	var prev, ns units.Nanos
	for ws := 1 << 10; ws <= 8<<20; ws <<= 1 {
		var err error
		ns, err = Latency(m, 600e6, ws)
		if err != nil {
			t.Fatal(err)
		}
		if ns+1e-9 < prev {
			t.Errorf("latency decreased at ws=%d: %g → %g", ws, prev, ns)
		}
		prev = ns
	}
	// The last point (8 MB) must sit at memory latency.
	if !stats.AlmostEqual(float64(ns), float64(m.MemNanos(600e6)), 0.05) {
		t.Errorf("tail latency %g, want memory %g", float64(ns), float64(m.MemNanos(600e6)))
	}
}

// Table 6 reproduction through the measurement path: ON-chip levels scale
// with frequency, memory does not (within a bus regime), and the 600 MHz
// bus drop appears.
func TestLevelNanosTable6(t *testing.T) {
	m := machine.PentiumM()
	at600, err := LevelNanos(m, 600e6)
	if err != nil {
		t.Fatal(err)
	}
	at1200, err := LevelNanos(m, 1200e6)
	if err != nil {
		t.Fatal(err)
	}
	// ON-chip: halving comes from doubling the clock.
	for _, l := range []machine.Level{machine.Reg, machine.L1, machine.L2} {
		if !stats.AlmostEqual(float64(at600[l]), 2*float64(at1200[l]), 0.05) {
			t.Errorf("%v: %g ns at 600 vs %g ns at 1200; want 2×", l, float64(at600[l]), float64(at1200[l]))
		}
	}
	// OFF-chip: 140 ns at 600 MHz, 110 ns at 1200 MHz (bus drop).
	if !stats.AlmostEqual(float64(at600[machine.Mem]), 140, 0.05) {
		t.Errorf("mem at 600 MHz = %g ns, want ≈ 140", float64(at600[machine.Mem]))
	}
	if !stats.AlmostEqual(float64(at1200[machine.Mem]), 110, 0.05) {
		t.Errorf("mem at 1200 MHz = %g ns, want ≈ 110", float64(at1200[machine.Mem]))
	}
}

func TestLatencyRejectsTinyWorkingSet(t *testing.T) {
	if _, err := Latency(machine.PentiumM(), 600e6, 16); err == nil {
		t.Error("working set below line size accepted")
	}
}
