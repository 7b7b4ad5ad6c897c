package faults

import (
	"math"
	"testing"

	"pasp/internal/units"
)

func TestZeroConfigDisabled(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero Config reports Enabled")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("zero Config invalid: %v", err)
	}
}

func TestEnabledPerKnob(t *testing.T) {
	cases := []struct {
		name string
		c    Config
		want bool
	}{
		{"jitter", Config{LatencyJitterFrac: 0.5}, true},
		{"drop", Config{DropProb: 0.1}, true},
		{"degrade", Config{DegradeProb: 0.1, DegradeFactor: 2}, true},
		{"degrade prob only", Config{DegradeProb: 0.1}, false},
		{"degrade factor only", Config{DegradeFactor: 2}, false},
		{"straggler", Config{StragglerFrac: 0.2, StragglerSlowdown: 1.5}, true},
		{"straggler frac only", Config{StragglerFrac: 0.2}, false},
	}
	for _, tc := range cases {
		if got := tc.c.Enabled(); got != tc.want {
			t.Errorf("%s: Enabled() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Config{
		{DropProb: -0.1},
		{DropProb: 1.5},
		{DropProb: math.NaN()},
		{DegradeProb: 2},
		{StragglerFrac: -1},
		{LatencyJitterFrac: -0.5},
		{LatencyJitterFrac: math.Inf(1)},
		{RetryTimeoutSec: -1},
		{RetryTimeoutSec: units.Seconds(math.Inf(1))},
		{MaxRetries: -1},
		{MaxRetries: 64},
		{DegradeFactor: 0.5},
		{DegradeFactor: math.NaN()},
		{StragglerSlowdown: 0.9},
		// Just above each ceiling: finite, but able to overflow a run.
		{LatencyJitterFrac: above(maxFactor)},
		{DegradeFactor: above(maxFactor)},
		{StragglerSlowdown: above(maxFactor)},
		{RetryTimeoutSec: units.Seconds(above(float64(maxRetryTimeout)))},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d (%+v): Validate accepted a non-physical config", i, c)
		}
	}
	atCeiling := Config{LatencyJitterFrac: maxFactor, DegradeFactor: maxFactor,
		StragglerSlowdown: maxFactor, RetryTimeoutSec: maxRetryTimeout, MaxRetries: maxRetryLimit}
	if err := atCeiling.Validate(); err != nil {
		t.Errorf("knobs at their ceilings rejected: %v", err)
	}
}

// above returns the next float64 above x.
func above(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

func TestScale(t *testing.T) {
	c := Config{
		Seed:              7,
		LatencyJitterFrac: 0.4,
		DropProb:          0.6,
		DegradeProb:       0.3,
		DegradeFactor:     2,
		StragglerFrac:     0.5,
		StragglerSlowdown: 1.5,
		RetryTimeoutSec:   units.Seconds(2e-3),
	}
	s := c.Scale(2)
	if s.LatencyJitterFrac != 0.8 {
		t.Errorf("jitter scaled to %g, want 0.8", s.LatencyJitterFrac)
	}
	// Probabilities cap at 1.
	if s.DropProb != 1 || s.StragglerFrac != 1 {
		t.Errorf("probabilities not capped: drop=%g straggler=%g", s.DropProb, s.StragglerFrac)
	}
	if s.DegradeProb != 0.6 {
		t.Errorf("DegradeProb scaled to %g, want 0.6", s.DegradeProb)
	}
	// Magnitudes are untouched.
	if s.DegradeFactor != 2 || s.StragglerSlowdown != 1.5 || s.RetryTimeoutSec != c.RetryTimeoutSec || s.Seed != 7 {
		t.Errorf("Scale perturbed magnitude knobs: %+v", s)
	}
	// Scale(0) turns everything off; negative clamps to 0.
	if c.Scale(0).Enabled() || c.Scale(-3).Enabled() {
		t.Error("Scale(0) or Scale(-3) still enabled")
	}
	// A huge scale caps the probabilities, so the config stays valid while
	// the jitter stays within its ceiling (0.4 × 1e6); past that ceiling
	// Validate refuses it.
	if err := c.Scale(1e6).Validate(); err != nil {
		t.Errorf("huge scale yields invalid config: %v", err)
	}
	if err := c.Scale(1e9).Validate(); err == nil {
		t.Error("scale 1e9 pushes the jitter to 4e8, past its ceiling, yet Validate accepted it")
	}
}

func TestBackoffSec(t *testing.T) {
	c := Config{RetryTimeoutSec: units.Seconds(1e-3)}
	if got := c.BackoffSec(0); got != 0 {
		t.Errorf("BackoffSec(0) = %g", got)
	}
	// 1 retry waits one timeout; 3 retries wait 1+2+4 = 7 timeouts.
	if got := c.BackoffSec(1); got != 1e-3 {
		t.Errorf("BackoffSec(1) = %g, want 1e-3", got)
	}
	if got := c.BackoffSec(3); got != 7e-3 {
		t.Errorf("BackoffSec(3) = %g, want 7e-3", got)
	}
	// Zero timeout falls back to the default.
	var d Config
	if got := d.BackoffSec(1); got != float64(DefaultRetryTimeout) {
		t.Errorf("default BackoffSec(1) = %g, want %g", got, float64(DefaultRetryTimeout))
	}
}

func TestRankDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, LatencyJitterFrac: 1, DropProb: 0.3, DegradeProb: 0.2, DegradeFactor: 2}
	a, b := NewRank(cfg, 3), NewRank(cfg, 3)
	for i := 0; i < 1000; i++ {
		fa, fb := a.Message(1e-4), b.Message(1e-4)
		if fa != fb {
			t.Fatalf("draw %d diverged: %+v vs %+v", i, fa, fb)
		}
	}
	// A different rank with the same seed draws a different sequence.
	other := NewRank(cfg, 4)
	same := true
	a2 := NewRank(cfg, 3)
	for i := 0; i < 100; i++ {
		if a2.Message(1e-4) != other.Message(1e-4) {
			same = false
			break
		}
	}
	if same {
		t.Error("ranks 3 and 4 drew identical sequences")
	}
	// A different seed changes the sequence for the same rank.
	cfg2 := cfg
	cfg2.Seed = 43
	seeded := NewRank(cfg2, 3)
	a3 := NewRank(cfg, 3)
	same = true
	for i := 0; i < 100; i++ {
		if a3.Message(1e-4) != seeded.Message(1e-4) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 drew identical sequences")
	}
}

func TestMessageBounds(t *testing.T) {
	cfg := Config{Seed: 1, LatencyJitterFrac: 0.5, DropProb: 0.5, DegradeProb: 0.5, DegradeFactor: 3, MaxRetries: 2}
	r := NewRank(cfg, 0)
	const latency = 1e-4
	sawRetry, sawDegrade := false, false
	for i := 0; i < 2000; i++ {
		f := r.Message(latency)
		if f.ExtraLatencySec < 0 || f.ExtraLatencySec >= cfg.LatencyJitterFrac*latency {
			t.Fatalf("jitter %g outside [0, %g)", f.ExtraLatencySec, cfg.LatencyJitterFrac*latency)
		}
		if f.WireFactor != 1 && f.WireFactor != 3 {
			t.Fatalf("WireFactor = %g", f.WireFactor)
		}
		if f.Retries < 0 || f.Retries > cfg.MaxRetries {
			t.Fatalf("Retries = %d outside [0, %d]", f.Retries, cfg.MaxRetries)
		}
		sawRetry = sawRetry || f.Retries > 0
		sawDegrade = sawDegrade || f.WireFactor > 1
	}
	if !sawRetry || !sawDegrade {
		t.Errorf("2000 draws at p=0.5 produced retry=%v degrade=%v; PRNG looks broken", sawRetry, sawDegrade)
	}
}

// TestJitterScaleInvariance is the property the robustness monotonicity
// claim rests on: scaling the jitter knob rescales every drawn delay by the
// same factor without disturbing the rest of the sequence, because each
// message consumes a fixed number of draws.
func TestJitterScaleInvariance(t *testing.T) {
	base := Config{Seed: 9, LatencyJitterFrac: 0.5}
	a, b := NewRank(base, 2), NewRank(base.Scale(2), 2)
	for i := 0; i < 500; i++ {
		fa, fb := a.Message(1e-4), b.Message(1e-4)
		if math.Abs(fb.ExtraLatencySec-2*fa.ExtraLatencySec) > 1e-18 {
			t.Fatalf("draw %d: jitter %g did not scale to %g", i, fa.ExtraLatencySec, fb.ExtraLatencySec)
		}
		if fa.WireFactor != fb.WireFactor || fa.Retries != fb.Retries {
			t.Fatalf("draw %d: scaling jitter disturbed other knobs: %+v vs %+v", i, fa, fb)
		}
	}
}

func TestStragglerStability(t *testing.T) {
	cfg := Config{Seed: 5, StragglerFrac: 0.5, StragglerSlowdown: 2}
	slow := 0
	for rank := 0; rank < 64; rank++ {
		a, b := NewRank(cfg, rank), NewRank(cfg, rank)
		straggler := func(r *Rank) bool { return r.ComputeFactor() > 1 }
		if straggler(a) != straggler(b) {
			t.Fatalf("rank %d straggler decision unstable", rank)
		}
		if straggler(a) {
			slow++
			if a.ComputeFactor() != 2 {
				t.Fatalf("straggler rank %d has ComputeFactor %g", rank, a.ComputeFactor())
			}
		} else if a.ComputeFactor() != 1 {
			t.Fatalf("healthy rank %d has ComputeFactor %g", rank, a.ComputeFactor())
		}
		// Message draws must not move the straggler decision (separate stream).
		a.Message(1e-4)
		if straggler(a) != straggler(b) {
			t.Fatalf("rank %d straggler decision moved after a draw", rank)
		}
	}
	if slow == 0 || slow == 64 {
		t.Errorf("straggler count %d/64 at frac 0.5; selection looks degenerate", slow)
	}
}

func TestCollective(t *testing.T) {
	cfg := Config{Seed: 11, LatencyJitterFrac: 0.5, DegradeProb: 0.3, DegradeFactor: 2}
	r := NewRank(cfg, 0)
	const cost = 1e-3
	for i := 0; i < 500; i++ {
		extra := r.Collective(cost)
		// Bounded by jitter plus one full-cost degrade stretch.
		if extra < 0 || extra >= cost*(cfg.LatencyJitterFrac+cfg.DegradeFactor-1) {
			t.Fatalf("draw %d: collective extra %g out of range", i, extra)
		}
	}
	if got := r.Collective(0); got != 0 {
		t.Errorf("Collective(0) = %g", got)
	}
	if got := r.Collective(-1); got != 0 {
		t.Errorf("Collective(-1) = %g", got)
	}
}

func TestParseSpec(t *testing.T) {
	c, err := ParseSpec("seed=42,jitter=0.5,drop=0.01,timeout=2ms,retries=5,degradeprob=0.1,degradefactor=2,straggler=0.25,slowdown=1.5")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed:              42,
		LatencyJitterFrac: 0.5,
		DropProb:          0.01,
		RetryTimeoutSec:   units.Seconds(2e-3),
		MaxRetries:        5,
		DegradeProb:       0.1,
		DegradeFactor:     2,
		StragglerFrac:     0.25,
		StragglerSlowdown: 1.5,
	}
	if c != want {
		t.Fatalf("ParseSpec = %+v, want %+v", c, want)
	}
	if c, err := ParseSpec("  "); err != nil || c != (Config{}) {
		t.Errorf("empty spec: %+v, %v", c, err)
	}
	for _, bad := range []string{
		"jitter",          // no value
		"warp=9",          // unknown key
		"gear=50us",       // unknown key: gear switches are a DVFS policy's SwitchSec
		"jitter=fast",     // unparseable float
		"drop=1.5",        // fails validation
		"timeout=3 miles", // unparseable duration
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestValueAtUniformity(t *testing.T) {
	// Crude sanity check on the counter PRNG: mean of [0,1) uniforms near
	// 0.5, all values in range.
	key := mixKey(123, 0)
	sum := 0.0
	const n = 10000
	for i := uint64(0); i < n; i++ {
		u := valueAt(key, streamEvent, i)
		if u < 0 || u >= 1 {
			t.Fatalf("valueAt out of [0,1): %g", u)
		}
		sum += u
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean of %d draws = %g, want ≈ 0.5", n, mean)
	}
}
