package dvfs

import (
	"fmt"
	"sort"

	"pasp/internal/mpi"
	"pasp/internal/power"
	"pasp/internal/units"
)

// GearPolicy is a static phase schedule: any phase may run at any operating
// point, not just top/bottom. FTPolicy and LUPolicy use two gears; a
// model-driven optimizer produces intermediate ones when they pay off (e.g.
// a partially frequency-sensitive pack/unpack phase).
type GearPolicy struct {
	// Default is the gear for phases not listed.
	Default power.PState
	// Phases maps phase labels to their gear.
	Phases map[string]power.PState
	// SwitchSec is the gear-transition stall applied by the runtime.
	SwitchSec units.Seconds
}

// Validate reports an error for an unusable policy.
func (p GearPolicy) Validate() error {
	if p.Default.Freq <= 0 {
		return fmt.Errorf("dvfs: zero-frequency default gear")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("dvfs: no phases named")
	}
	for phase, st := range p.Phases {
		if st.Freq <= 0 {
			return fmt.Errorf("dvfs: zero-frequency gear for phase %q", phase)
		}
	}
	if p.SwitchSec < 0 {
		return fmt.Errorf("dvfs: negative switch time")
	}
	return nil
}

// Hook returns the phase hook implementing the policy.
func (p GearPolicy) Hook() func(c *mpi.Ctx, phase string) {
	return func(c *mpi.Ctx, phase string) {
		if st, ok := p.Phases[phase]; ok {
			c.SetPState(st)
			return
		}
		c.SetPState(p.Default)
	}
}

// Apply returns a copy of the world with the policy installed.
func (p GearPolicy) Apply(w mpi.World) (mpi.World, error) {
	if err := p.Validate(); err != nil {
		return mpi.World{}, err
	}
	w.State = p.Default
	w.OnPhase = p.Hook()
	w.GearSwitchSec = p.SwitchSec
	return w, nil
}

// String renders the schedule sorted by phase name.
func (p GearPolicy) String() string {
	names := make([]string, 0, len(p.Phases))
	for n := range p.Phases {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("default %v", p.Default)
	for _, n := range names {
		s += fmt.Sprintf(", %s→%v", n, p.Phases[n])
	}
	return s
}

// CompareGears is another name for Compare. perfbench/repro.go is its last
// caller; the alias goes with the next change to that benchmark.
func CompareGears(w mpi.World, p GearPolicy, run func(w mpi.World) (*mpi.Result, error)) (Comparison, error) {
	return Compare(w, p, run)
}

// PhaseModel describes one phase's predicted time at any gear:
// T(f) = FlatSec + ScaledSecMHz/fMHz, the segment model's coefficients.
type PhaseModel struct {
	// FlatSec is the frequency-insensitive time.
	FlatSec float64
	// ScaledSecMHz is the frequency-scaled coefficient (seconds·MHz).
	ScaledSecMHz float64
}

// Time returns the predicted phase time at a gear.
func (m PhaseModel) Time(st power.PState) units.Seconds {
	//palint:ignore floatdiv -- MHz() of a validated P-state frequency is > 0
	t := units.Seconds(m.FlatSec + m.ScaledSecMHz/st.Freq.MHz())
	if t < 0 {
		return 0
	}
	return t
}

// OptimizeEDP picks, independently for each phase, the gear minimizing the
// phase's predicted cluster energy-delay product n·P(f)·T(f)², where the
// node power is the busy-poll draw. For a flat phase the bottom gear wins;
// for a fully scaled phase the top gear wins (P ∝ V²f grows slower than
// the T² delay shrinks); partially sensitive phases land on intermediate
// gears — the schedule only a power-aware model can find.
func OptimizeEDP(prof power.Profile, n int, phases map[string]PhaseModel, switchSec units.Seconds) (GearPolicy, error) {
	if err := prof.Validate(); err != nil {
		return GearPolicy{}, err
	}
	if n < 1 {
		return GearPolicy{}, fmt.Errorf("dvfs: N = %d", n)
	}
	if len(phases) == 0 {
		return GearPolicy{}, fmt.Errorf("dvfs: no phase models")
	}
	pol := GearPolicy{
		Default:   prof.TopState(),
		Phases:    map[string]power.PState{},
		SwitchSec: switchSec,
	}
	for name, m := range phases {
		if m.FlatSec < 0 || m.ScaledSecMHz < 0 {
			return GearPolicy{}, fmt.Errorf("dvfs: negative coefficients for phase %q", name)
		}
		best := prof.TopState()
		bestEDP := -1.0
		for _, st := range prof.States {
			t := m.Time(st)
			edp := float64(n) * power.EDP(prof.NodePower(st, 1).Energy(t), t)
			if bestEDP < 0 || edp < bestEDP {
				bestEDP, best = edp, st
			}
		}
		pol.Phases[name] = best
	}
	return pol, nil
}
