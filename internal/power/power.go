// Package power models the power and energy behaviour of DVFS-capable
// processors, following the operating points of the Pentium M 1.4 GHz
// processor used in the paper's 16-node cluster (Table 2).
//
// The dynamic power of a CMOS processor running at supply voltage V and
// clock frequency f is P = C·V²·f, where C is the effective switched
// capacitance. Dropping to a lower P-state reduces both V and f, so power
// falls roughly cubically while peak throughput falls only linearly — the
// tradeoff that power-aware speedup quantifies.
package power

import (
	"fmt"

	"pasp/internal/units"
)

// PState is a single operating point: a (frequency, supply voltage) pair the
// processor can be switched to at run time.
type PState struct {
	// Freq is the core clock frequency.
	Freq units.Hertz
	// Voltage is the supply voltage at this operating point.
	Voltage units.Volts
}

// String renders the operating point in the paper's style, e.g. "1400MHz@1.484V".
func (s PState) String() string {
	return fmt.Sprintf("%.0fMHz@%.3fV", s.Freq.MHz(), float64(s.Voltage))
}

// Profile describes the power characteristics of one cluster node: the
// available P-states plus the constants of the CMOS power law and the power
// drawn by the rest of the node (memory, NIC, disk, board).
type Profile struct {
	// States holds the available operating points sorted by ascending
	// frequency. States[0] is f0, the base frequency used as the reference
	// point for power-aware speedup.
	States []PState
	// CEff is the effective switched capacitance in farads for the dynamic
	// power term C·V²·f.
	CEff float64
	// Static is the CPU leakage coefficient in watts per volt: leakage is
	// modelled as proportional to voltage (Static·V) to first order.
	Static float64
	// Base is the frequency-independent power in watts drawn by the rest of
	// the node: DRAM, NIC, chipset, disk.
	Base float64
	// IdleFactor scales dynamic power when the core is idle (clock gating
	// keeps some of the chip switching). 0 ≤ IdleFactor ≤ 1.
	IdleFactor float64
}

// PentiumM returns the power profile of the paper's experimental platform:
// a Dell Inspiron 8600 node with a 1.4 GHz Pentium M ("Centrino") processor
// exposing the five Enhanced SpeedStep operating points of Table 2.
//
// CEff is calibrated so the top P-state dissipates about the processor's
// 21 W thermal design power; Base approximates the rest of a laptop node.
func PentiumM() Profile {
	return Profile{
		States: []PState{
			{Freq: units.MHz(600), Voltage: 0.956},
			{Freq: units.MHz(800), Voltage: 1.180},
			{Freq: units.MHz(1000), Voltage: 1.308},
			{Freq: units.MHz(1200), Voltage: 1.436},
			{Freq: units.MHz(1400), Voltage: 1.484},
		},
		CEff:       6.8e-9,
		Static:     1.5,
		Base:       18.0,
		IdleFactor: 0.25,
	}
}

// Validate reports an error when the profile is malformed: no states,
// unsorted or non-positive frequencies, non-positive voltages, or
// out-of-range constants.
func (p Profile) Validate() error {
	if len(p.States) == 0 {
		return fmt.Errorf("power: profile has no P-states")
	}
	for i, s := range p.States {
		if s.Freq <= 0 {
			return fmt.Errorf("power: state %d has non-positive frequency %g", i, s.Freq)
		}
		if s.Voltage <= 0 {
			return fmt.Errorf("power: state %d has non-positive voltage %g", i, s.Voltage)
		}
		if i > 0 && s.Freq <= p.States[i-1].Freq {
			return fmt.Errorf("power: states not sorted by ascending frequency at index %d", i)
		}
		if i > 0 && s.Voltage < p.States[i-1].Voltage {
			return fmt.Errorf("power: voltage not monotone with frequency at index %d", i)
		}
	}
	if p.CEff <= 0 || p.Static < 0 || p.Base < 0 {
		return fmt.Errorf("power: non-positive power constants")
	}
	if p.IdleFactor < 0 || p.IdleFactor > 1 {
		return fmt.Errorf("power: IdleFactor %g outside [0,1]", p.IdleFactor)
	}
	return nil
}

// Base returns f0, the lowest available operating point. Power-aware speedup
// is always computed relative to one processor running at Base.
func (p Profile) BaseState() PState { return p.States[0] }

// Top returns the highest available operating point.
func (p Profile) TopState() PState { return p.States[len(p.States)-1] }

// StateAt returns the operating point whose frequency matches freq to within
// 0.5%, or an error naming the available points.
func (p Profile) StateAt(freq units.Hertz) (PState, error) {
	for _, s := range p.States {
		diff := s.Freq - freq
		if diff < 0 {
			diff = -diff
		}
		if diff <= s.Freq.Times(0.005) {
			return s, nil
		}
	}
	return PState{}, fmt.Errorf("power: no P-state at %.0f MHz (available: %v)", freq.MHz(), p.States)
}

// Dynamic returns the dynamic (switching) power at operating point s when
// the core is fully busy: C·V²·f. CEff carries the farads, so the product
// is assembled over plain float64 and typed at the end.
func (p Profile) Dynamic(s PState) units.Watts {
	v := float64(s.Voltage)
	return units.Watts(p.CEff * v * v * float64(s.Freq))
}

// CPUPower returns the total processor power at operating point s with the
// given utilization in [0,1]: leakage plus dynamic power, where an idle core
// still dissipates IdleFactor of its dynamic power.
func (p Profile) CPUPower(s PState, util float64) units.Watts {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	leak := units.Watts(p.Static * float64(s.Voltage))
	eff := p.IdleFactor + (1-p.IdleFactor)*util
	return leak + p.Dynamic(s).Times(eff)
}

// NodePower returns the total node power: CPU power plus the
// frequency-independent rest-of-node draw.
func (p Profile) NodePower(s PState, util float64) units.Watts {
	return units.Watts(p.Base) + p.CPUPower(s, util)
}

// EDP returns the energy-delay product E·T of a run that consumed energy
// joules and took seconds of wall time. Lower is better; EDP balances the
// energy savings of a slow gear against its slowdown. The product is J·s,
// which has no dedicated units type, so the result is a plain float64.
func EDP(energy units.Joules, seconds units.Seconds) float64 {
	return float64(energy) * float64(seconds)
}

// ED2P returns the energy-delay-squared product E·T², which weights delay
// more heavily than EDP and is preferred when performance dominates.
func ED2P(energy units.Joules, seconds units.Seconds) float64 {
	return float64(energy) * float64(seconds) * float64(seconds)
}
