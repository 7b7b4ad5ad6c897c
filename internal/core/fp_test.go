package core

import (
	"testing"

	"pasp/internal/machine"
	"pasp/internal/stats"
	"pasp/internal/units"
)

// table6SecPerIns builds the per-level timing table of the paper's Table 6
// for a blended CPION of 2.19 cycles... here split per level using the
// PentiumM machine model's published values.
func table6SecPerIns() map[float64][machine.NumLevels]units.Seconds {
	m := machine.PentiumM()
	out := map[float64][machine.NumLevels]units.Seconds{}
	for _, mhz := range []float64{600, 800, 1000, 1200, 1400} {
		var sec [machine.NumLevels]units.Seconds
		for l := machine.Reg; l < machine.NumLevels; l++ {
			sec[l] = m.SecPerIns(l, units.MHz(mhz))
		}
		out[mhz] = sec
	}
	return out
}

func testFP() *FP {
	return &FP{
		Work:      machine.W(145e9, 175e9, 4.71e9, 3.97e9), // Table 5
		SecPerIns: table6SecPerIns(),
		CommSec: map[int]map[float64]units.Seconds{
			2: {600: 8, 800: 7, 1000: 7, 1200: 7, 1400: 7},
			4: {600: 6, 800: 5, 1000: 5, 1200: 5, 1400: 5},
		},
	}
}

func TestFPValidate(t *testing.T) {
	if err := testFP().Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	empty := &FP{SecPerIns: table6SecPerIns()}
	if err := empty.Validate(); err == nil {
		t.Error("empty workload accepted")
	}
	noTimes := &FP{Work: machine.W(1, 1, 1, 1)}
	if err := noTimes.Validate(); err == nil {
		t.Error("missing timings accepted")
	}
}

func TestFPPredictT1Eq14(t *testing.T) {
	fp := testFP()
	got, err := fp.PredictT1(600)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-evaluated dot product at 600 MHz: reg 1 cyc, L1 3 cyc, L2 9 cyc,
	// mem 140 ns.
	want := 145e9*(1.0/600e6) + 175e9*(3.0/600e6) + 4.71e9*(9.0/600e6) + 3.97e9*140e-9
	if !stats.AlmostEqual(float64(got), want, 1e-9) {
		t.Errorf("T1(600) = %g, want %g", float64(got), want)
	}
	// Frequency scaling is sublinear because the memory term is flat.
	fast, _ := fp.PredictT1(1400)
	if ratio := got / fast; float64(ratio) >= 1400.0/600 || ratio <= 1 {
		t.Errorf("T1 ratio %g not in (1, 2.33)", float64(ratio))
	}
}

func TestFPPredictTimeEq15(t *testing.T) {
	fp := testFP()
	t1, _ := fp.PredictT1(800)
	got, err := fp.PredictTime(4, 800)
	if err != nil {
		t.Fatal(err)
	}
	want := t1.Div(4) + 5
	if !stats.AlmostEqual(float64(got), float64(want), 1e-9) {
		t.Errorf("T(4,800) = %g, want %g", float64(got), float64(want))
	}
	// N=1 needs no communication profile.
	if _, err := fp.PredictTime(1, 800); err != nil {
		t.Errorf("N=1 prediction failed: %v", err)
	}
}

// TestFPPredictSpeedup: the speedup FP's predictions imply, T1(f0)/T_N(f),
// is 1 at the base cell and above 1 at N=4 on the top gear.
func TestFPPredictSpeedup(t *testing.T) {
	fp := testFP()
	t1, err := fp.PredictT1(600)
	if err != nil {
		t.Fatal(err)
	}
	speedup := func(n int, mhz float64) float64 {
		tn, err := fp.PredictTime(n, mhz)
		if err != nil {
			t.Fatal(err)
		}
		return float64(t1) / float64(tn)
	}
	if s := speedup(1, 600); !stats.AlmostEqual(s, 1, 1e-12) {
		t.Errorf("base speedup %g, want 1", s)
	}
	if s4 := speedup(4, 1400); s4 <= 1 {
		t.Errorf("speedup at N=4@1400 is %g", s4)
	}
}

func TestFPMissingParameters(t *testing.T) {
	fp := testFP()
	if _, err := fp.PredictT1(700); err == nil {
		t.Error("unmeasured frequency accepted")
	}
	if _, err := fp.PredictTime(8, 600); err == nil {
		t.Error("unprofiled N accepted")
	}
	if _, err := fp.PredictTime(0, 600); err == nil {
		t.Error("N=0 accepted")
	}
	delete(fp.CommSec[2], 600)
	if _, err := fp.PredictTime(2, 600); err == nil {
		t.Error("unprofiled frequency for N accepted")
	}
}
