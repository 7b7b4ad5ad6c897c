package npb

import (
	"math"
	"testing"

	"pasp/internal/machine"
	"pasp/internal/mpi"
	"pasp/internal/papi"
	"pasp/internal/power"
	"pasp/internal/simnet"
	"pasp/internal/stats"
	"pasp/internal/units"
)

func npbWorld(n int, mhz float64) mpi.World {
	prof := power.PentiumM()
	st, err := prof.StateAt(units.MHz(mhz))
	if err != nil {
		panic(err)
	}
	return mpi.World{
		N:     n,
		Net:   simnet.FastEthernet(),
		Mach:  machine.PentiumM(),
		Prof:  prof,
		State: st,
	}
}

func TestEPValidate(t *testing.T) {
	if err := (EP{LogPairs: 16}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, bad := range []EP{{LogPairs: 0}, {LogPairs: 45}, {LogPairs: 16, ScaleLog: -1}, {LogPairs: 40, ScaleLog: 30}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

func TestEPAcceptanceNearPiOver4(t *testing.T) {
	ep := EP{LogPairs: 16}
	res, _, err := ep.Run(npbWorld(1, 600))
	if err != nil {
		t.Fatal(err)
	}
	frac := res.Accepted / math.Ldexp(1, ep.LogPairs)
	if math.Abs(frac-math.Pi/4) > 0.01 {
		t.Errorf("acceptance fraction %g, want ≈ π/4 = %g", frac, math.Pi/4)
	}
}

func TestEPAnnulusCountsSumToAccepted(t *testing.T) {
	res, _, err := EP{LogPairs: 14}.Run(npbWorld(2, 600))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, q := range res.Q {
		sum += q
	}
	if sum != res.Accepted {
		t.Errorf("ΣQ = %g, Accepted = %g", sum, res.Accepted)
	}
}

func TestEPRankInvariance(t *testing.T) {
	ep := EP{LogPairs: 15}
	ref, _, err := ep.Run(npbWorld(1, 600))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3, 4, 8} {
		got, _, err := ep.Run(npbWorld(n, 600))
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if got.Accepted != ref.Accepted {
			t.Errorf("N=%d: accepted %g ≠ %g", n, got.Accepted, ref.Accepted)
		}
		if !stats.AlmostEqual(got.Sx, ref.Sx, 1e-9) || !stats.AlmostEqual(got.Sy, ref.Sy, 1e-9) {
			t.Errorf("N=%d: sums (%g,%g) ≠ (%g,%g)", n, got.Sx, got.Sy, ref.Sx, ref.Sy)
		}
		for l := range got.Q {
			if got.Q[l] != ref.Q[l] {
				t.Errorf("N=%d: Q[%d] = %g ≠ %g", n, l, got.Q[l], ref.Q[l])
			}
		}
	}
}

func TestEPNearLinearSpeedup(t *testing.T) {
	ep := EP{LogPairs: 16, ScaleLog: 8}
	_, r1, err := ep.Run(npbWorld(1, 600))
	if err != nil {
		t.Fatal(err)
	}
	_, r8, err := ep.Run(npbWorld(8, 600))
	if err != nil {
		t.Fatal(err)
	}
	s := r1.Seconds / r8.Seconds
	if s < 7.5 || s > 8.0 {
		t.Errorf("EP speedup at N=8 is %g, want ≈ 8 (paper: 15.9 at 16)", s)
	}
}

func TestEPFrequencySpeedupLinear(t *testing.T) {
	ep := EP{LogPairs: 16, ScaleLog: 6}
	_, slow, err := ep.Run(npbWorld(1, 600))
	if err != nil {
		t.Fatal(err)
	}
	_, fast, err := ep.Run(npbWorld(1, 1400))
	if err != nil {
		t.Fatal(err)
	}
	s := slow.Seconds / fast.Seconds
	if !stats.AlmostEqual(s, 1400.0/600.0, 0.01) {
		t.Errorf("EP frequency speedup %g, want ≈ 2.33 (paper: 2.34)", s)
	}
}

func TestEPScaleLogMultipliesWorkload(t *testing.T) {
	base := EP{LogPairs: 14}
	scaled := EP{LogPairs: 14, ScaleLog: 3}
	_, rb, err := base.Run(npbWorld(1, 600))
	if err != nil {
		t.Fatal(err)
	}
	_, rs, err := scaled.Run(npbWorld(1, 600))
	if err != nil {
		t.Fatal(err)
	}
	ratio := rs.Counters.Get(papi.TotIns) / rb.Counters.Get(papi.TotIns)
	if !stats.AlmostEqual(ratio, 8, 1e-9) {
		t.Errorf("TOT_INS ratio = %g, want 8", ratio)
	}
	if !stats.AlmostEqual(rs.Seconds/rb.Seconds, 8, 0.01) {
		t.Errorf("time ratio = %g, want ≈ 8", rs.Seconds/rb.Seconds)
	}
}

func TestEPWorkloadIsOnChipOnly(t *testing.T) {
	_, r, err := EP{LogPairs: 14}.Run(npbWorld(2, 600))
	if err != nil {
		t.Fatal(err)
	}
	w, err := r.Counters.Decompose()
	if err != nil {
		t.Fatal(err)
	}
	if w.OffChip() != 0 {
		t.Errorf("EP has OFF-chip work %g, want 0", w.OffChip())
	}
	if w.OnChip() <= 0 {
		t.Error("EP has no ON-chip work")
	}
}
