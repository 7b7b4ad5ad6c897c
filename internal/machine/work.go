package machine

import (
	"fmt"
	"math"

	"pasp/internal/units"
)

// Work is an instruction mix: how many instructions execute with data at
// each memory level. It is the unit of the paper's workload decomposition —
// wON is Ops[Reg]+Ops[L1]+Ops[L2] and wOFF is Ops[Mem].
type Work struct {
	// Ops[l] is the instruction count at level l. Counts are float64 so
	// analytic locality models can produce fractional splits.
	Ops [NumLevels]float64
}

// W is a convenience constructor for a Work value.
func W(reg, l1, l2, mem float64) Work {
	return Work{Ops: [NumLevels]float64{Reg: reg, L1: l1, L2: l2, Mem: mem}}
}

// Total returns the total instruction count w = wON + wOFF.
func (w Work) Total() float64 {
	t := 0.0
	for _, n := range w.Ops {
		t += n
	}
	return t
}

// OnChip returns wON, the instruction count served by on-die resources.
func (w Work) OnChip() float64 { return w.Ops[Reg] + w.Ops[L1] + w.Ops[L2] }

// OffChip returns wOFF, the instruction count requiring main-memory access.
func (w Work) OffChip() float64 { return w.Ops[Mem] }

// Fractions returns each level's share of the total instruction count, or
// all zeros for an empty mix.
func (w Work) Fractions() [NumLevels]float64 {
	var f [NumLevels]float64
	t := w.Total()
	if t == 0 {
		return f
	}
	for l := range w.Ops {
		f[l] = w.Ops[l] / t
	}
	return f
}

// Validate reports an error when any count is negative.
func (w Work) Validate() error {
	for l, n := range w.Ops {
		if n < 0 {
			return fmt.Errorf("machine: negative op count %g at %v", n, Level(l))
		}
	}
	return nil
}

// TimeFor returns the wall-clock time the mix takes on one node at core
// frequency freq. ON-chip instructions cost Cycles[l]/freq; OFF-chip
// instructions cost MemNanos(freq); a MemOverlap share of whichever side is
// shorter is hidden by out-of-order execution. With MemOverlap = 0 this is
// exactly the paper's additive Eq. 6.
func (c Config) TimeFor(w Work, freq units.Hertz) units.Seconds {
	on := units.Seconds(0)
	for l := Reg; l <= L2; l++ {
		on += units.Cycles(w.Ops[l] * c.Cycles[l]).At(freq)
	}
	mem := c.MemNanos(freq).Sec().Times(w.Ops[Mem])
	hidden := units.Seconds(c.MemOverlap * math.Min(float64(on), float64(mem)))
	return on + mem - hidden
}
