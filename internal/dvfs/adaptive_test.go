package dvfs

import (
	"testing"

	"pasp/internal/cluster"
	"pasp/internal/mpi"
	"pasp/internal/npb"
	"pasp/internal/power"
)

func TestAdaptiveValidate(t *testing.T) {
	ok := &Adaptive{Prof: power.PentiumM(), SwitchSec: 50e-6}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid tuner rejected: %v", err)
	}
	if err := (&Adaptive{Prof: power.Profile{}}).Validate(); err == nil {
		t.Error("empty profile accepted")
	}
	if err := (&Adaptive{Prof: power.PentiumM(), SwitchSec: -1}).Validate(); err == nil {
		t.Error("negative switch accepted")
	}
}

// On a workload with many iterations the tuner must converge: the
// communication phase ends up at a low gear, the compute phases stay high,
// and the run saves energy against the all-top baseline.
func TestAdaptiveConvergesOnFT(t *testing.T) {
	p := cluster.PentiumM()
	w, err := p.World(4, 1400)
	if err != nil {
		t.Fatal(err)
	}
	// Enough iterations that exploration (2 visits × 5 gears per phase)
	// finishes with plenty of exploitation left.
	ft := npb.FT{Nx: 16, Ny: 16, Nz: 16, Iters: 24, Scale: 64}
	a := &Adaptive{Prof: p.Prof, SwitchSec: 50e-6}
	cmp, chosen, err := CompareAdaptive(w, a, func(w2 mpi.World) (*mpi.Result, error) {
		_, r, err := ft.Run(w2)
		return r, err
	})
	if err != nil {
		t.Fatal(err)
	}
	alltoall, ok := chosen["ft-alltoall"]
	if !ok {
		t.Fatalf("alltoall never converged: %v", chosen)
	}
	if alltoall.Freq >= p.Prof.TopState().Freq {
		t.Errorf("alltoall converged to %v, want a derated gear", alltoall)
	}
	if fft, ok := chosen["ft-fft-x"]; ok && fft.Freq < 1000e6 {
		t.Errorf("fft-x converged to %v; compute should stay fast", fft)
	}
	if cmp.EnergySavings() < 0.05 {
		t.Errorf("adaptive tuner saves only %.1f%% energy", cmp.EnergySavings()*100)
	}
	if cmp.Slowdown() > 0.20 {
		t.Errorf("adaptive tuner slows down %.1f%%", cmp.Slowdown()*100)
	}
}

func TestAdaptiveDeterministic(t *testing.T) {
	p := cluster.PentiumM()
	ft := npb.FT{Nx: 16, Ny: 16, Nz: 8, Iters: 12, Scale: 16}
	run := func() (float64, float64) {
		w, err := p.World(4, 1400)
		if err != nil {
			t.Fatal(err)
		}
		a := &Adaptive{Prof: p.Prof, SwitchSec: 50e-6}
		sched, err := a.Apply(w)
		if err != nil {
			t.Fatal(err)
		}
		_, r, err := ft.Run(sched)
		if err != nil {
			t.Fatal(err)
		}
		return r.Seconds, r.Joules
	}
	s1, j1 := run()
	s2, j2 := run()
	if s1 != s2 || j1 != j2 {
		t.Errorf("adaptive runs diverge: %g/%g vs %g/%g", s1, j1, s2, j2)
	}
}

func TestAdaptiveChosenEmptyBeforeRun(t *testing.T) {
	a := &Adaptive{Prof: power.PentiumM()}
	if got := a.Chosen(0); len(got) != 0 {
		t.Errorf("chosen gears before any run: %v", got)
	}
}
