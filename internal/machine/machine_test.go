package machine

import (
	"math"
	"testing"
	"testing/quick"

	"pasp/internal/stats"
	"pasp/internal/units"
)

func TestPentiumMValid(t *testing.T) {
	if err := PentiumM().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestLevelStrings(t *testing.T) {
	want := map[Level]string{
		Reg: "CPU/Register", L1: "L1 Cache", L2: "L2 Cache", Mem: "Main Memory",
	}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("%d.String() = %q, want %q", l, l.String(), s)
		}
	}
	if Level(99).String() == "" {
		t.Error("unknown level should still render")
	}
}

func TestOnChipClassification(t *testing.T) {
	for _, l := range []Level{Reg, L1, L2} {
		if !l.OnChip() {
			t.Errorf("%v should be ON-chip", l)
		}
	}
	if Mem.OnChip() {
		t.Error("Mem should be OFF-chip")
	}
}

// blendedCPIOn returns the average cycles per ON-chip instruction under the
// mix's ON-chip level weights: the CPION of Table 6.
func blendedCPIOn(c Config, w Work) float64 {
	sum := 0.0
	for l := Reg; l <= L2; l++ {
		sum += w.Ops[l] * c.Cycles[l]
	}
	return sum / w.OnChip()
}

// Table 6 reproduction: the blended ON-chip CPI under the paper's LU mix
// (44.6% register, 53.9% L1, 1.4% L2 of ON-chip instructions) must come out
// near 2.19 cycles.
func TestBlendedCPIMatchesTable6(t *testing.T) {
	cpi := blendedCPIOn(PentiumM(), W(0.446, 0.539, 0.014, 0))
	if !stats.AlmostEqual(cpi, 2.19, 0.02) {
		t.Errorf("blended CPION = %.3f, want ≈ 2.19 (Table 6)", cpi)
	}
}

// Table 6 reproduction: seconds per ON-chip instruction scale as 1/f, and
// seconds per OFF-chip instruction are 140 ns below the bus-drop threshold
// and 110 ns above it.
func TestSecPerInsTable6(t *testing.T) {
	c := PentiumM()
	cpi := blendedCPIOn(c, W(0.446, 0.539, 0.014, 0))
	for _, tc := range []struct {
		mhz     float64
		wantOn  float64 // ×1e-9 s
		wantMem float64 // ×1e-9 s
	}{
		{600, 3.65, 140},
		{800, 2.74, 140},
		{1000, 2.19, 110},
		{1200, 1.83, 110},
		{1400, 1.56, 110},
	} {
		f := units.MHz(tc.mhz)
		on := float64(units.Cycles(cpi).At(f).Nanos())
		if !stats.AlmostEqual(on, tc.wantOn, 0.02) {
			t.Errorf("%g MHz: sec/ON-ins = %.2f ns, want ≈ %.2f ns", tc.mhz, on, tc.wantOn)
		}
		if got := float64(c.MemNanos(f)); !stats.AlmostEqual(got, tc.wantMem, 1e-9) {
			t.Errorf("%g MHz: mem ns = %g, want %g", tc.mhz, got, tc.wantMem)
		}
	}
}

func TestBusDropDisable(t *testing.T) {
	c := PentiumM()
	c.BusDrop = false
	if got := c.MemNanos(600e6); got != c.MemNanosFast {
		t.Errorf("with BusDrop off, MemNanos(600MHz) = %g, want %g", got, c.MemNanosFast)
	}
}

func TestTimeForEq6(t *testing.T) {
	c := PentiumM()
	// Pure register work: w instructions at 1 cycle each.
	w := W(1e9, 0, 0, 0)
	f := units.GHz(1)
	if got := c.TimeFor(w, f); !stats.AlmostEqual(float64(got), 1.0, 1e-12) {
		t.Errorf("1e9 reg ins at 1GHz = %g s, want 1", got)
	}
	// Pure memory work is frequency-independent above the bus threshold.
	m := W(0, 0, 0, 1e6)
	if a, b := c.TimeFor(m, 1000e6), c.TimeFor(m, 1400e6); a != b {
		t.Errorf("OFF-chip time varies with frequency above threshold: %g vs %g", a, b)
	}
	// ON-chip time at 600 MHz is 1400/600 × the time at 1400 MHz.
	on := W(1e8, 1e8, 1e7, 0)
	ratio := c.TimeFor(on, 600e6) / c.TimeFor(on, 1400e6)
	if !stats.AlmostEqual(float64(ratio), 1400.0/600.0, 1e-9) {
		t.Errorf("ON-chip frequency scaling ratio = %g, want %g", ratio, 1400.0/600.0)
	}
}

func TestWorkAccessors(t *testing.T) {
	w := W(1, 2, 3, 4)
	if w.Total() != 10 {
		t.Errorf("Total = %g, want 10", w.Total())
	}
	if w.OnChip() != 6 {
		t.Errorf("OnChip = %g, want 6", w.OnChip())
	}
	if w.OffChip() != 4 {
		t.Errorf("OffChip = %g, want 4", w.OffChip())
	}
	fr := w.Fractions()
	if fr[Mem] != 0.4 {
		t.Errorf("Fractions[Mem] = %g, want 0.4", fr[Mem])
	}
	var zero Work
	if zero.Fractions() != ([NumLevels]float64{}) {
		t.Error("zero work should have zero fractions")
	}
}

func TestWorkValidate(t *testing.T) {
	if err := W(1, 1, 1, 1).Validate(); err != nil {
		t.Errorf("valid work rejected: %v", err)
	}
	if err := W(-1, 0, 0, 0).Validate(); err == nil {
		t.Error("negative count accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Config){
		"zero reg cycles":    func(c *Config) { c.Cycles[Reg] = 0 },
		"L1 faster than reg": func(c *Config) { c.Cycles[L1] = 0.5 },
		"slow < fast":        func(c *Config) { c.MemNanosSlow = 50 },
		"zero mem nanos":     func(c *Config) { c.MemNanosFast = 0; c.MemNanosSlow = 0 },
		"L2 smaller than L1": func(c *Config) { c.L2Bytes = 1 },
		"zero line":          func(c *Config) { c.LineBytes = 0 },
	}
	for name, mutate := range cases {
		c := PentiumM()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded, want error", name)
		}
	}
}

// Property: with overlap disabled, TimeFor is additive — time(a+b) =
// time(a)+time(b) at any frequency — which is exactly the paper's Eq. 6.
// (The default MemOverlap breaks additivity on purpose; see footnote 1.)
func TestTimeForAdditiveProperty(t *testing.T) {
	c := PentiumM()
	c.MemOverlap = 0
	freqs := []units.Hertz{600e6, 800e6, 1000e6, 1200e6, 1400e6}
	f := func(a, b [NumLevels]uint32, fi uint8) bool {
		wa := W(float64(a[0]), float64(a[1]), float64(a[2]), float64(a[3]))
		wb := W(float64(b[0]), float64(b[1]), float64(b[2]), float64(b[3]))
		var sum Work
		for l := range sum.Ops {
			sum.Ops[l] = wa.Ops[l] + wb.Ops[l]
		}
		freq := freqs[int(fi)%len(freqs)]
		lhs := c.TimeFor(sum, freq)
		rhs := c.TimeFor(wa, freq) + c.TimeFor(wb, freq)
		return stats.AlmostEqual(float64(lhs), float64(rhs), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: time never increases when frequency increases (memory time is
// flat, on-chip time shrinks).
func TestTimeMonotoneInFrequencyProperty(t *testing.T) {
	c := PentiumM()
	freqs := []units.Hertz{600e6, 800e6, 1000e6, 1200e6, 1400e6}
	f := func(ops [NumLevels]uint32, i, j uint8) bool {
		w := W(float64(ops[0]), float64(ops[1]), float64(ops[2]), float64(ops[3]))
		a, b := int(i)%len(freqs), int(j)%len(freqs)
		if a > b {
			a, b = b, a
		}
		return c.TimeFor(w, freqs[b]) <= c.TimeFor(w, freqs[a])+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeForZeroWork(t *testing.T) {
	if got := PentiumM().TimeFor(Work{}, 600e6); got != 0 {
		t.Errorf("zero work time = %g, want 0", got)
	}
}

func TestMemTimeFreqIndependentWithinRegime(t *testing.T) {
	c := PentiumM()
	w := W(0, 0, 0, 1e7)
	if a, b := c.TimeFor(w, 600e6), c.TimeFor(w, 800e6); math.Abs(float64(a-b)) > 1e-15 {
		t.Errorf("mem time differs within slow regime: %g vs %g", a, b)
	}
}

// The default overlap hides part of the shorter side, so a mixed workload
// runs faster than the additive Eq. 6 predicts — the FP model's footnote-1
// error source.
func TestMemOverlapHidesStall(t *testing.T) {
	c := PentiumM()
	w := W(1e8, 1e8, 0, 2e6)
	withOverlap := c.TimeFor(w, 600e6)
	c.MemOverlap = 0
	additive := c.TimeFor(w, 600e6)
	if withOverlap >= additive {
		t.Errorf("overlap did not reduce time: %g vs %g", withOverlap, additive)
	}
	// Pure workloads are unaffected (nothing to overlap with).
	for _, pure := range []Work{W(1e8, 0, 0, 0), W(0, 0, 0, 1e6)} {
		d := PentiumM()
		z := d
		z.MemOverlap = 0
		if d.TimeFor(pure, 600e6) != z.TimeFor(pure, 600e6) {
			t.Errorf("pure workload affected by overlap: %v", pure)
		}
	}
}

func TestValidateRejectsBadOverlap(t *testing.T) {
	c := PentiumM()
	c.MemOverlap = 1.5
	if err := c.Validate(); err == nil {
		t.Error("MemOverlap > 1 accepted")
	}
}
