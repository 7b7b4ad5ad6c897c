// Package machine models the timing behaviour of one cluster node: how long
// a mix of instructions takes as a function of where its data resides
// (register, L1, L2, main memory) and of the CPU clock frequency.
//
// This is the substrate for the paper's central mechanism (Eq. 6): ON-chip
// work — instructions whose data is in registers or on-die caches — executes
// in a fixed number of core cycles, so its wall time scales as 1/fON when
// DVFS changes the clock. OFF-chip work is bounded by the memory subsystem,
// whose latency is wall-clock (nanoseconds) and does not scale with the core
// clock. The model also reproduces the platform quirk the paper measured in
// Table 6: at the lowest P-states the front-side-bus effective speed drops,
// so a memory instruction costs 140 ns instead of 110 ns.
package machine

import (
	"fmt"

	"pasp/internal/units"
)

// Level identifies where an instruction's data resides at execution time.
// Reg, L1 and L2 are ON-chip in the paper's terminology; Mem is OFF-chip.
type Level int

const (
	// Reg is an instruction whose operands are in registers (or whose
	// execution is bounded by the core pipeline, not by data supply).
	Reg Level = iota
	// L1 is an instruction whose data hits in the on-die L1 data cache.
	L1
	// L2 is an instruction whose data misses L1 but hits the on-die L2.
	L2
	// Mem is an instruction that must access main memory (OFF-chip).
	Mem
	// NumLevels is the number of distinct levels.
	NumLevels
)

// String returns the conventional name of the level.
func (l Level) String() string {
	switch l {
	case Reg:
		return "CPU/Register"
	case L1:
		return "L1 Cache"
	case L2:
		return "L2 Cache"
	case Mem:
		return "Main Memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// OnChip reports whether the level is served from on-die resources and
// therefore scales with the core clock.
func (l Level) OnChip() bool { return l == Reg || l == L1 || l == L2 }

// Config holds the microarchitectural timing parameters of a node.
type Config struct {
	// Cycles[l] is the average number of core cycles consumed by one
	// instruction whose data resides at ON-chip level l. Cycles[Mem] is
	// ignored: memory instructions are priced in wall-clock nanoseconds.
	Cycles [NumLevels]float64
	// MemNanosFast is the cost of one OFF-chip (main-memory) instruction
	// when the front-side bus runs at full speed.
	MemNanosFast units.Nanos
	// MemNanosSlow is the cost of one OFF-chip instruction at the P-states
	// below BusDropBelowHz, where the platform reduces the bus divider (the
	// Table 6 effect: 140 ns vs 110 ns).
	MemNanosSlow units.Nanos
	// BusDropBelowHz is the core frequency under which the slow bus timing
	// applies. Set to 0 (with BusDrop true or false) to disable the effect.
	BusDropBelowHz units.Hertz
	// BusDrop enables the low-frequency bus-speed reduction. The paper
	// observed it on the Pentium M platform; the ablation benchmark turns it
	// off to quantify its contribution to prediction error.
	BusDrop bool
	// L1Bytes, L2Bytes and LineBytes describe the cache geometry. The
	// analytic kernels use them to decide which level a working set maps to;
	// the cache simulator (package cache) uses them for trace-driven runs.
	L1Bytes   int
	L2Bytes   int
	LineBytes int
	// MemOverlap is the fraction of OFF-chip stall time the out-of-order
	// core hides under concurrent ON-chip execution, in [0,1]. The paper's
	// Eq. 6 is purely additive (its footnote 1 concedes it "does not
	// account for out-of-order execution and overlap"), so a non-zero
	// overlap is precisely the model error the fine-grain parameterization
	// exhibits at N=1 in Table 7.
	MemOverlap float64
}

// PentiumM returns the timing model of the paper's node: 1.4 GHz Pentium M
// with 32 KB on-die L1D and 1 MB on-die L2. The per-level cycle counts are
// chosen so the blended ON-chip CPI under the paper's LU instruction mix
// (44.6% register, 53.9% L1, 1.4% L2 — Table 5) reproduces Table 6's
// CPION = 2.19.
func PentiumM() Config {
	return Config{
		Cycles:         [NumLevels]float64{Reg: 1.0, L1: 3.0, L2: 9.0},
		MemNanosFast:   110,
		MemNanosSlow:   140,
		BusDropBelowHz: units.MHz(900),
		BusDrop:        true,
		L1Bytes:        32 << 10,
		L2Bytes:        1 << 20,
		LineBytes:      64,
		MemOverlap:     0.2,
	}
}

// Validate reports an error for non-physical parameters.
func (c Config) Validate() error {
	for l := Reg; l < Mem; l++ {
		if c.Cycles[l] <= 0 {
			return fmt.Errorf("machine: non-positive cycle count for %v", l)
		}
	}
	if c.Cycles[L1] < c.Cycles[Reg] || c.Cycles[L2] < c.Cycles[L1] {
		return fmt.Errorf("machine: per-level cycles must be non-decreasing")
	}
	if c.MemNanosFast <= 0 || c.MemNanosSlow < c.MemNanosFast {
		return fmt.Errorf("machine: memory nanos must satisfy 0 < fast ≤ slow")
	}
	if c.L1Bytes <= 0 || c.L2Bytes < c.L1Bytes || c.LineBytes <= 0 {
		return fmt.Errorf("machine: malformed cache geometry")
	}
	if c.MemOverlap < 0 || c.MemOverlap > 1 {
		return fmt.Errorf("machine: MemOverlap %g outside [0,1]", c.MemOverlap)
	}
	return nil
}

// MemNanos returns the wall-clock cost of one OFF-chip instruction at core
// frequency freq, applying the low-gear bus-speed drop when enabled.
func (c Config) MemNanos(freq units.Hertz) units.Nanos {
	if c.BusDrop && freq < c.BusDropBelowHz {
		return c.MemNanosSlow
	}
	return c.MemNanosFast
}

// SecPerIns returns the wall-clock time consumed by one instruction at the
// given level and core frequency — the quantity Table 6 tabulates as CPI/f.
func (c Config) SecPerIns(l Level, freq units.Hertz) units.Seconds {
	if l == Mem {
		return c.MemNanos(freq).Sec()
	}
	return units.Cycles(c.Cycles[l]).At(freq)
}
