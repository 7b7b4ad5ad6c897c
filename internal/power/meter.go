package power

import (
	"fmt"

	"pasp/internal/units"
)

// Meter integrates node power over virtual time to produce the energy of a
// simulated run. The cluster simulator feeds it one sample per scheduling
// interval: the P-state, the core utilization over the interval, and the
// interval length.
//
// The zero value is an empty meter ready for use with a zero profile;
// construct with NewMeter to attach a Profile.
type Meter struct {
	profile Profile
	joules  units.Joules
}

// NewMeter returns a meter that prices intervals with profile.
func NewMeter(profile Profile) *Meter {
	return &Meter{profile: profile}
}

// Accumulate adds an interval of dt spent at operating point s with the
// given core utilization. Negative durations are rejected so a mis-ordered
// trace cannot silently produce negative energy.
func (m *Meter) Accumulate(s PState, util float64, dt units.Seconds) error {
	if dt < 0 {
		return fmt.Errorf("power: negative interval %g s", dt)
	}
	m.joules += m.profile.NodePower(s, util).Energy(dt)
	return nil
}

// Joules returns the total energy accumulated so far.
func (m *Meter) Joules() units.Joules { return m.joules }
