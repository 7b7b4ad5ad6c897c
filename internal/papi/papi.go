// Package papi simulates the hardware performance counters the paper uses
// to parameterize its fine-grain model (Section 5.2, Table 5).
//
// On the real platform, PAPI exposes event counters; the paper monitors
// PAPI_TOT_INS, PAPI_L1_DCA, PAPI_L1_DCM, PAPI_L2_TCA and PAPI_L2_TCM and
// derives the ON-/OFF-chip workload decomposition with the identities of
// Table 5:
//
//	CPU/Register = TOT_INS − L1_DCA
//	L1 cache     = L1_DCA − L1_DCM
//	L2 cache     = L2_TCA − L2_TCM
//	Main memory  = L2_TCM
//
// In the simulator, kernels account their instruction mixes as machine.Work
// values; this package converts between that ground truth and the raw event
// view, so the fine-grain parameterization consumes exactly the quantities
// a real PAPI measurement would provide.
package papi

import (
	"fmt"

	"pasp/internal/machine"
)

// Event enumerates the monitored counters.
type Event int

const (
	// TotIns is PAPI_TOT_INS: total instructions completed.
	TotIns Event = iota
	// L1DCA is PAPI_L1_DCA: L1 data cache accesses.
	L1DCA
	// L1DCM is PAPI_L1_DCM: L1 data cache misses.
	L1DCM
	// L2TCA is PAPI_L2_TCA: L2 total cache accesses.
	L2TCA
	// L2TCM is PAPI_L2_TCM: L2 total cache misses.
	L2TCM
	// NumEvents is the number of monitored counters.
	NumEvents
)

// String returns the PAPI preset name of the event.
func (e Event) String() string {
	switch e {
	case TotIns:
		return "PAPI_TOT_INS"
	case L1DCA:
		return "PAPI_L1_DCA"
	case L1DCM:
		return "PAPI_L1_DCM"
	case L2TCA:
		return "PAPI_L2_TCA"
	case L2TCM:
		return "PAPI_L2_TCM"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// Counters is a snapshot of the five monitored events. Counts are float64
// because kernels may account fractional analytic mixes; a real counter
// read would round them.
type Counters struct {
	v [NumEvents]float64
}

// Get returns one event's count.
func (c *Counters) Get(e Event) float64 { return c.v[e] }

// Add accumulates another snapshot into c.
func (c *Counters) Add(o Counters) {
	for i := range c.v {
		c.v[i] += o.v[i]
	}
}

// AddWork accounts an instruction mix the way the hardware would: every
// instruction retires (TOT_INS); instructions whose data is at L1 or beyond
// perform an L1 access; those at L2 or beyond miss L1 and access L2; those
// at memory miss L2.
func (c *Counters) AddWork(w machine.Work) {
	reg, l1, l2, mem := w.Ops[machine.Reg], w.Ops[machine.L1], w.Ops[machine.L2], w.Ops[machine.Mem]
	c.v[TotIns] += reg + l1 + l2 + mem
	c.v[L1DCA] += l1 + l2 + mem
	c.v[L1DCM] += l2 + mem
	c.v[L2TCA] += l2 + mem
	c.v[L2TCM] += mem
}

// Decompose applies the Table 5 identities, recovering the per-level
// instruction mix from the raw events. It returns an error when the counts
// are inconsistent (an identity would go negative), which on real hardware
// indicates a multiplexed-counter artifact.
func (c *Counters) Decompose() (machine.Work, error) {
	reg := c.v[TotIns] - c.v[L1DCA]
	l1 := c.v[L1DCA] - c.v[L1DCM]
	l2 := c.v[L2TCA] - c.v[L2TCM]
	mem := c.v[L2TCM]
	w := machine.W(reg, l1, l2, mem)
	if err := w.Validate(); err != nil {
		return machine.Work{}, fmt.Errorf("papi: inconsistent counters: %w", err)
	}
	return w, nil
}

// Derivations returns the Table 5 formula strings, in level order, for the
// harness to print alongside the counts.
func Derivations() [machine.NumLevels]string {
	return [machine.NumLevels]string{
		machine.Reg: "PAPI_TOT_INS - PAPI_L1_DCA",
		machine.L1:  "PAPI_L1_DCA - PAPI_L1_DCM",
		machine.L2:  "PAPI_L2_TCA - PAPI_L2_TCM",
		machine.Mem: "PAPI_L2_TCM",
	}
}
