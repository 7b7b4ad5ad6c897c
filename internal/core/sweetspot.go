package core

import (
	"fmt"
	"math"

	"pasp/internal/power"
	"pasp/internal/units"
)

// Objective selects what a sweet-spot search optimizes.
type Objective int

const (
	// MaxSpeedup maximizes power-aware speedup (minimizes time).
	MaxSpeedup Objective = iota
	// MinEnergy minimizes cluster energy.
	MinEnergy
	// MinEDP minimizes the energy-delay product.
	MinEDP
	// MinED2P minimizes the energy-delay-squared product.
	MinED2P
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case MaxSpeedup:
		return "max-speedup"
	case MinEnergy:
		return "min-energy"
	case MinEDP:
		return "min-EDP"
	case MinED2P:
		return "min-ED2P"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// Candidate is one configuration with its figures of merit.
type Candidate struct {
	Config
	// Seconds, Joules are the configuration's measured (or predicted) cost.
	Seconds, Joules float64
	// Speedup is relative to 1 processor at the base frequency.
	Speedup float64
	// AvgWatts is the mean cluster power.
	AvgWatts float64
}

// EDP returns the candidate's energy-delay product.
func (c Candidate) EDP() float64 {
	return power.EDP(units.Joules(c.Joules), units.Seconds(c.Seconds))
}

// ED2P returns the candidate's energy-delay-squared product.
func (c Candidate) ED2P() float64 {
	return power.ED2P(units.Joules(c.Joules), units.Seconds(c.Seconds))
}

// Candidates lists every configuration of the campaign that has both a time
// and an energy measurement, with derived figures of merit.
func Candidates(m *Measurements) ([]Candidate, error) {
	var out []Candidate
	for _, n := range m.Ns() {
		for _, mhz := range m.Freqs() {
			t, err := m.Time(n, mhz)
			if err == nil && t <= 0 {
				return nil, fmt.Errorf("core: non-positive measured time for %v", Config{n, mhz})
			}
			if err != nil {
				continue
			}
			e, err := m.Energy(n, mhz)
			if err != nil {
				continue
			}
			s, err := m.Speedup(n, mhz)
			if err != nil {
				return nil, err
			}
			out = append(out, Candidate{
				Config:   Config{n, mhz},
				Seconds:  t,
				Joules:   e,
				Speedup:  s,
				AvgWatts: e / t,
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no configurations with both time and energy")
	}
	return out, nil
}

// SweetSpot returns the configuration optimizing the objective, optionally
// subject to a cluster power cap in watts (0 means uncapped). This is the
// paper's motivating use of an accurate power-aware model: identifying the
// "sweet spot" system configurations optimized for performance and power.
func SweetSpot(m *Measurements, obj Objective, powerCapWatts float64) (Candidate, error) {
	cands, err := Candidates(m)
	if err != nil {
		return Candidate{}, err
	}
	best := Candidate{}
	bestScore := math.Inf(1)
	found := false
	for _, c := range cands {
		if powerCapWatts > 0 && c.AvgWatts > powerCapWatts {
			continue
		}
		var score float64
		switch obj {
		case MaxSpeedup:
			score = -c.Speedup
		case MinEnergy:
			score = c.Joules
		case MinEDP:
			score = c.EDP()
		case MinED2P:
			score = c.ED2P()
		default:
			return Candidate{}, fmt.Errorf("core: unknown objective %d", obj)
		}
		if score < bestScore {
			bestScore, best, found = score, c, true
		}
	}
	if !found {
		return Candidate{}, fmt.Errorf("core: no configuration satisfies the %g W power cap", powerCapWatts)
	}
	return best, nil
}
