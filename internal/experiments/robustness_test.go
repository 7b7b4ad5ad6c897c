package experiments

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"pasp/internal/faults"
)

func TestRobustnessSpecValidate(t *testing.T) {
	good := RobustnessSpec{
		Kernel:     "ft",
		Ns:         []int{2, 4},
		Magnitudes: []float64{0, 1},
		Faults:     JitterOnlyFaults(1),
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := []RobustnessSpec{
		{Ns: []int{2}, Magnitudes: []float64{1}, Faults: JitterOnlyFaults(1)},                         // no kernel
		{Kernel: "ft", Magnitudes: []float64{1}, Faults: JitterOnlyFaults(1)},                         // no Ns
		{Kernel: "ft", Ns: []int{2}, Faults: JitterOnlyFaults(1)},                                     // no magnitudes
		{Kernel: "ft", Ns: []int{2}, Magnitudes: []float64{1, 0.5}, Faults: JitterOnlyFaults(1)},      // descending
		{Kernel: "ft", Ns: []int{4, 2}, Magnitudes: []float64{0, 1}, Faults: JitterOnlyFaults(1)},     // descending Ns
		{Kernel: "ft", Ns: []int{2, 2}, Magnitudes: []float64{0, 1}, Faults: JitterOnlyFaults(1)},     // repeated N
		{Kernel: "ft", Ns: []int{2}, Magnitudes: []float64{math.NaN()}, Faults: JitterOnlyFaults(1)},  // NaN knobs once scaled
		{Kernel: "ft", Ns: []int{2}, Magnitudes: []float64{0, 1}, Faults: faults.Config{}},            // injects nothing
		{Kernel: "ft", Ns: []int{2}, Magnitudes: []float64{0, 1}, Faults: faults.Config{DropProb: 2}}, // invalid config
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestRobustnessRejectsOffGridN(t *testing.T) {
	s := Quick()
	_, err := s.Robustness(context.Background(), RobustnessSpec{
		Kernel:     "ft",
		Ns:         []int{16}, // quick grid stops at 4
		Magnitudes: []float64{0, 1},
		Faults:     JitterOnlyFaults(1),
	})
	if err == nil || !strings.Contains(err.Error(), "campaign grid") {
		t.Fatalf("off-grid N accepted: %v", err)
	}
	if _, err := s.Robustness(context.Background(), RobustnessSpec{
		Kernel:     "nope",
		Ns:         []int{2},
		Magnitudes: []float64{1},
		Faults:     JitterOnlyFaults(1),
	}); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// TestRobustnessHonoursCancellation: the clean campaign is a store hit
// that ignores ctx, so only cluster.Sweep's check at each perturbed cell
// boundary lets a caller that has gone away stop the sweep.
func TestRobustnessHonoursCancellation(t *testing.T) {
	s := Quick()
	if _, err := s.MeasureFT(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.Robustness(ctx, RobustnessSpec{
		Kernel:     "ft",
		Ns:         []int{2, 4},
		Magnitudes: []float64{0, 0.5, 1},
		Faults:     JitterOnlyFaults(7),
	})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled sweep returned (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

func TestRobustnessQuick(t *testing.T) {
	s := Quick()
	spec := RobustnessSpec{
		Kernel:     "ft",
		Ns:         []int{2, 4},
		Magnitudes: []float64{0, 0.5, 1},
		Faults:     JitterOnlyFaults(7),
	}
	a, err := s.Robustness(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// The magnitude-0 control row reproduces the clean platform, where the
	// SP fit is exact at the base frequency by construction.
	for j, n := range spec.Ns {
		if e := a.SPErr[0][j]; e > 1e-9 {
			t.Errorf("control-row SP error at N=%d is %g, want ≈ 0", n, e)
		}
		if a.FaultSec[0][j] != 0 || a.Retries[0][j] != 0 {
			t.Errorf("control row injected time at N=%d: %g s, %d retries",
				n, a.FaultSec[0][j], a.Retries[0][j])
		}
	}
	// Jitter-only error growth: monotone in magnitude at every N, and the
	// injected time grows with it.
	for j, n := range spec.Ns {
		for i := 1; i < len(spec.Magnitudes); i++ {
			if a.SPErr[i][j] <= a.SPErr[i-1][j] {
				t.Errorf("SP error not increasing at N=%d: mag %g → %g gives %g → %g",
					n, spec.Magnitudes[i-1], spec.Magnitudes[i], a.SPErr[i-1][j], a.SPErr[i][j])
			}
			if a.FPErr[i][j] <= a.FPErr[i-1][j] {
				t.Errorf("FP error not increasing at N=%d: %g → %g",
					n, a.FPErr[i-1][j], a.FPErr[i][j])
			}
			if a.FaultSec[i][j] <= a.FaultSec[i-1][j] {
				t.Errorf("injected time not increasing at N=%d", n)
			}
			if a.MeasSec[i][j] <= a.MeasSec[i-1][j] {
				t.Errorf("measured time not increasing at N=%d", n)
			}
		}
	}
	// Determinism: the whole sweep re-runs to identical numbers.
	b, err := s.Robustness(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.Magnitudes {
		for j := range spec.Ns {
			if a.MeasSec[i][j] != b.MeasSec[i][j] || a.SPErr[i][j] != b.SPErr[i][j] ||
				a.FPErr[i][j] != b.FPErr[i][j] || a.Retries[i][j] != b.Retries[i][j] {
				t.Fatalf("sweep not deterministic at mag=%g N=%d", spec.Magnitudes[i], spec.Ns[j])
			}
		}
	}
	// A different seed perturbs differently.
	spec2 := spec
	spec2.Faults = JitterOnlyFaults(8)
	c, err := s.Robustness(context.Background(), spec2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 1; i < len(spec.Magnitudes); i++ {
		for j := range spec.Ns {
			if a.MeasSec[i][j] != c.MeasSec[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical perturbed measurements")
	}
	// Rendering sanity.
	out := a.String()
	for _, want := range []string{"FT robustness", "SP prediction error", "FP prediction error", "N=4", "magnitude"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	csv := a.CSV()
	if !strings.Contains(csv, "kernel,magnitude,n,meas_sec,sp_err,fp_err,fault_sec,retries") {
		t.Errorf("CSV missing header:\n%s", csv)
	}
	if got, want := strings.Count(csv, "\n"), 1+len(spec.Ns)*len(spec.Magnitudes); got != want {
		t.Errorf("CSV has %d lines, want %d", got, want)
	}
}

func TestRobustnessDefaultFaultsFullMix(t *testing.T) {
	s := Quick()
	spec := RobustnessSpec{
		Kernel:     "lu",
		Ns:         []int{2, 4},
		Magnitudes: []float64{0, 1},
		Faults:     DefaultRobustnessFaults(11),
	}
	res, err := s.Robustness(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// The hostile row must actually inject: nonzero fault time and a slower
	// measurement than the control row.
	for j, n := range spec.Ns {
		if res.FaultSec[1][j] <= 0 {
			t.Errorf("full-mix row injected nothing at N=%d", n)
		}
		if res.MeasSec[1][j] <= res.MeasSec[0][j] {
			t.Errorf("full-mix row not slower at N=%d: %g vs %g", n, res.MeasSec[1][j], res.MeasSec[0][j])
		}
	}
}

// TestRobustnessFTAtScale is the acceptance sweep: on the paper's platform,
// the clean-fitted models' error on FT at N=16 grows monotonically with the
// jitter magnitude, deterministically for a fixed seed.
func TestRobustnessFTAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale robustness sweep in -short mode")
	}
	s := Paper()
	spec := RobustnessSpec{
		Kernel:     "ft",
		Ns:         []int{4, 8, 16},
		Magnitudes: []float64{0, 0.5, 1},
		Faults:     JitterOnlyFaults(1),
	}
	a, err := s.Robustness(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for j, n := range spec.Ns {
		for i := 1; i < len(spec.Magnitudes); i++ {
			if a.SPErr[i][j] <= a.SPErr[i-1][j] {
				t.Errorf("SP error not increasing with jitter at N=%d: %g → %g",
					n, a.SPErr[i-1][j], a.SPErr[i][j])
			}
			if a.FPErr[i][j] <= a.FPErr[i-1][j] {
				t.Errorf("FP error not increasing with jitter at N=%d: %g → %g",
					n, a.FPErr[i-1][j], a.FPErr[i][j])
			}
		}
	}
	b, err := s.Robustness(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() != b.CSV() {
		t.Error("paper-scale sweep not deterministic")
	}
}
