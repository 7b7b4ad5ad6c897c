package faults

import (
	"math"
	"testing"
)

// FuzzMessageFault checks the injector's contract over arbitrary knob
// settings: every drawn perturbation is finite, non-negative, bounded by the
// configured limits, and reproducible from the same (seed, rank) key.
func FuzzMessageFault(f *testing.F) {
	f.Add(uint64(1), 0.5, 0.1, 0.2, 2.0, 1e-4)
	f.Add(uint64(42), 0.0, 0.0, 0.0, 0.0, 1e-4)
	f.Add(uint64(7), 10.0, 1.0, 1.0, 100.0, 1e-6)
	f.Fuzz(func(t *testing.T, seed uint64, jitter, drop, degradeProb, degradeFactor, latency float64) {
		cfg := Config{
			Seed:              seed,
			LatencyJitterFrac: jitter,
			DropProb:          drop,
			DegradeProb:       degradeProb,
			DegradeFactor:     degradeFactor,
		}
		if cfg.Validate() != nil {
			t.Skip("non-physical config")
		}
		if latency < 0 || math.IsNaN(latency) || math.IsInf(latency, 0) {
			t.Skip("non-physical latency")
		}
		a, b := NewRank(cfg, 0), NewRank(cfg, 0)
		for i := 0; i < 32; i++ {
			fa := a.Message(latency)
			if fa != b.Message(latency) {
				t.Fatalf("draw %d not reproducible", i)
			}
			if math.IsNaN(fa.ExtraLatencySec) || math.IsInf(fa.ExtraLatencySec, 0) || fa.ExtraLatencySec < 0 {
				t.Fatalf("ExtraLatencySec = %g", fa.ExtraLatencySec)
			}
			if fa.ExtraLatencySec > jitter*latency {
				t.Fatalf("jitter %g above bound %g", fa.ExtraLatencySec, jitter*latency)
			}
			if fa.WireFactor < 1 || math.IsInf(fa.WireFactor, 0) {
				t.Fatalf("WireFactor = %g", fa.WireFactor)
			}
			if fa.Retries < 0 || fa.Retries > cfg.maxRetries() {
				t.Fatalf("Retries = %d outside [0, %d]", fa.Retries, cfg.maxRetries())
			}
			if back := cfg.BackoffSec(fa.Retries); back < 0 || math.IsNaN(back) || math.IsInf(back, 0) {
				t.Fatalf("BackoffSec(%d) = %g", fa.Retries, back)
			}
		}
	})
}

// FuzzParseSpec checks the CLI parser never panics and every accepted spec
// round-trips into a config that passes validation, with a retry bound of
// at most 63 (past it, one dropped message costs unbounded PRNG draws and
// the 2^retries backoff overflows) and every per-event magnitude within its
// ceiling (past it, a finite knob can overflow a run to +Inf).
func FuzzParseSpec(f *testing.F) {
	f.Add("seed=1,jitter=0.5")
	f.Add("drop=0.01,timeout=1ms,retries=3")
	f.Add("gear=50us")
	f.Add("")
	f.Add("jitter=,=,x==")
	f.Add("retries=64")
	f.Add("retries=2147483647")
	f.Add("jitter=1e308")
	f.Add("degradefactor=1e308,degradeprob=1")
	f.Add("slowdown=1e308,straggler=1")
	f.Add("timeout=2562047h")
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if verr := c.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted invalid config: %v", spec, verr)
		}
		if c.MaxRetries > 63 {
			t.Fatalf("ParseSpec(%q) accepted MaxRetries = %d, want ≤ 63", spec, c.MaxRetries)
		}
		if c.LatencyJitterFrac > 1e6 || c.DegradeFactor > 1e6 || c.StragglerSlowdown > 1e6 || c.RetryTimeoutSec > 1e6 {
			t.Fatalf("ParseSpec(%q) accepted a knob above its ceiling: %+v", spec, c)
		}
	})
}
