// Package dvfs implements phase-level dynamic voltage and frequency
// scheduling on the simulated cluster — the technique the paper's
// introduction motivates: "energy savings are possible using a priori
// performance profiling to identify communication-bound phases in parallel
// codes and reduce power to the processors by applying DVFS to these
// phases", with reported savings above 30% at under 1% slowdown on
// communication-bound workloads.
//
// A GearPolicy maps phase labels to operating points and runs every other
// phase at its default gear; it installs itself as the MPI runtime's phase
// hook. FTPolicy and LUPolicy are the two-gear schedules that derate the
// communication-bound phases to the bottom gear, OptimizeEDP derives a
// multi-gear schedule from per-phase models, and Adaptive tunes gears
// online. Compare and CompareAdaptive quantify the energy/time tradeoff
// against a run pinned at the schedule's starting gear.
package dvfs

import (
	"fmt"

	"pasp/internal/mpi"
	"pasp/internal/power"
	"pasp/internal/units"
)

// Comparison quantifies a policy against the all-top-gear baseline.
type Comparison struct {
	// BaselineSec/BaselineJoules are the fixed top-gear run's costs.
	BaselineSec    units.Seconds
	BaselineJoules units.Joules
	// ScheduledSec/ScheduledJoules are the policy run's costs.
	ScheduledSec    units.Seconds
	ScheduledJoules units.Joules
}

// EnergySavings returns the fractional energy saved by the policy.
func (c Comparison) EnergySavings() float64 {
	if c.BaselineJoules == 0 {
		return 0
	}
	//palint:ignore floatdiv -- guarded: BaselineJoules == 0 returns above
	return 1 - float64(c.ScheduledJoules)/float64(c.BaselineJoules)
}

// Slowdown returns the fractional execution-time increase of the policy.
func (c Comparison) Slowdown() float64 {
	if c.BaselineSec == 0 {
		return 0
	}
	//palint:ignore floatdiv -- guarded: BaselineSec == 0 returns above
	return float64(c.ScheduledSec)/float64(c.BaselineSec) - 1
}

// String summarizes the tradeoff.
func (c Comparison) String() string {
	return fmt.Sprintf("energy %.1f%% lower, execution time %.2f%% higher (%.2f s / %.0f J vs %.2f s / %.0f J)",
		c.EnergySavings()*100, c.Slowdown()*100,
		float64(c.ScheduledSec), float64(c.ScheduledJoules),
		float64(c.BaselineSec), float64(c.BaselineJoules))
}

// Compare runs the kernel twice on the given world — once pinned at the
// policy's default gear, once under the policy — and reports the tradeoff.
func Compare(w mpi.World, p GearPolicy, run func(w mpi.World) (*mpi.Result, error)) (Comparison, error) {
	return compare(w, p.Apply, run)
}

// compare is the body every comparison shares: apply installs the schedule
// on a copy of w, the baseline runs pinned at the gear that schedule starts
// from, and then the scheduled world runs.
func compare(w mpi.World, apply func(mpi.World) (mpi.World, error), run func(w mpi.World) (*mpi.Result, error)) (Comparison, error) {
	sched, err := apply(w)
	if err != nil {
		return Comparison{}, err
	}
	base := w
	base.State = sched.State
	base.OnPhase = nil
	base.GearSwitchSec = 0
	baseRes, err := run(base)
	if err != nil {
		return Comparison{}, fmt.Errorf("dvfs: baseline: %w", err)
	}
	schedRes, err := run(sched)
	if err != nil {
		return Comparison{}, fmt.Errorf("dvfs: scheduled: %w", err)
	}
	return Comparison{
		BaselineSec:     units.Seconds(baseRes.Seconds),
		BaselineJoules:  units.Joules(baseRes.Joules),
		ScheduledSec:    units.Seconds(schedRes.Seconds),
		ScheduledJoules: units.Joules(schedRes.Joules),
	}, nil
}

// FTPolicy returns the natural policy for the FT kernel on the given
// profile: compute at the top gear, the transpose alltoall and checksum
// reduction at the bottom gear.
func FTPolicy(prof power.Profile) GearPolicy {
	low := prof.BaseState()
	return GearPolicy{
		Default:   prof.TopState(),
		Phases:    map[string]power.PState{"ft-alltoall": low, "ft-checksum": low},
		SwitchSec: units.MicrosToSec(50),
	}
}

// LUPolicy returns the natural policy for the LU kernel: the wavefront
// exchange and ghost phases at the bottom gear.
func LUPolicy(prof power.Profile) GearPolicy {
	low := prof.BaseState()
	return GearPolicy{
		Default: prof.TopState(),
		Phases: map[string]power.PState{
			"lu-lower-wave":  low,
			"lu-upper-wave":  low,
			"lu-lower-ghost": low,
			"lu-upper-ghost": low,
		},
		SwitchSec: units.MicrosToSec(50),
	}
}
