// Package core implements the paper's contribution: the power-aware
// speedup model (Eq. 11, with its Eq. 12 and Eq. 13 special cases) and its
// two parameterizations — simplified (Section 5.1, Eqs. 16–18) and
// fine-grain (Section 5.2, Eqs. 14–15) — together with the classical
// speedup models it is compared against (Amdahl's law and its
// multi-enhancement generalization, Eqs. 1–3) and the energy-delay
// analysis the abstract promises.
//
// The package deliberately consumes only *measurements*: execution times,
// hardware-counter snapshots, microbenchmark latencies and communication
// profiles. It never reads the simulator's internal parameters, so its
// prediction error against the simulator is a meaningful quantity, exactly
// as the paper's error against real hardware is.
package core

import (
	"fmt"
	"math"
	"sort"

	"pasp/internal/power"
	"pasp/internal/units"
)

// Config identifies one cluster configuration: a processor count and a
// core frequency in MHz.
type Config struct {
	// N is the number of processors.
	N int
	// MHz is the operating frequency in megahertz.
	MHz float64
}

// String renders the configuration compactly.
func (c Config) String() string { return fmt.Sprintf("N=%d@%gMHz", c.N, c.MHz) }

// Measurements is a campaign of measured execution times (and optionally
// energies) over cluster configurations. Power-aware speedup is always
// computed relative to 1 processor at the lowest measured frequency
// (the paper's f0 = 600 MHz).
type Measurements struct {
	times  map[Config]float64
	energy map[Config]float64
}

// NewMeasurements returns an empty campaign.
func NewMeasurements() *Measurements {
	return &Measurements{
		times:  map[Config]float64{},
		energy: map[Config]float64{},
	}
}

// SetTime records the execution time of a configuration.
func (m *Measurements) SetTime(n int, mhz, seconds float64) {
	m.times[Config{n, mhz}] = seconds
}

// SetEnergy records the cluster energy of a configuration.
func (m *Measurements) SetEnergy(n int, mhz, joules float64) {
	m.energy[Config{n, mhz}] = joules
}

// Time returns the measured execution time of a configuration.
func (m *Measurements) Time(n int, mhz float64) (float64, error) {
	t, ok := m.times[Config{n, mhz}]
	if !ok {
		return 0, fmt.Errorf("core: no measurement for %v", Config{n, mhz})
	}
	return t, nil
}

// Energy returns the measured cluster energy of a configuration.
func (m *Measurements) Energy(n int, mhz float64) (float64, error) {
	e, ok := m.energy[Config{n, mhz}]
	if !ok {
		return 0, fmt.Errorf("core: no energy measurement for %v", Config{n, mhz})
	}
	return e, nil
}

// Ns returns the measured processor counts, ascending.
func (m *Measurements) Ns() []int {
	seen := map[int]bool{}
	for c := range m.times {
		seen[c.N] = true
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Freqs returns the measured frequencies in MHz, ascending.
func (m *Measurements) Freqs() []float64 {
	seen := map[float64]bool{}
	for c := range m.times {
		seen[c.MHz] = true
	}
	out := make([]float64, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Float64s(out)
	return out
}

// BaseMHz returns f0: the lowest measured frequency, Freqs()[0], found by
// one scan that builds nothing, since every Speedup calls it. It returns an
// error for an empty campaign.
func (m *Measurements) BaseMHz() (float64, error) {
	if len(m.times) == 0 {
		return 0, fmt.Errorf("core: empty measurement campaign")
	}
	base := math.Inf(1)
	for c := range m.times {
		base = math.Min(base, c.MHz)
	}
	return base, nil
}

// Speedup returns the measured power-aware speedup S_N(w, f) =
// T_1(w, f0) / T_N(w, f) — the paper's Eq. 4.
func (m *Measurements) Speedup(n int, mhz float64) (float64, error) {
	base, err := m.BaseMHz()
	if err != nil {
		return 0, err
	}
	t1, err := m.Time(1, base)
	if err != nil {
		return 0, fmt.Errorf("core: speedup needs the sequential base run: %w", err)
	}
	tn, err := m.Time(n, mhz)
	if err != nil {
		return 0, err
	}
	if tn <= 0 {
		return 0, fmt.Errorf("core: non-positive time for %v", Config{n, mhz})
	}
	return t1 / tn, nil
}

// EDP returns the measured energy-delay product of a configuration.
func (m *Measurements) EDP(n int, mhz float64) (float64, error) {
	t, err := m.Time(n, mhz)
	if err != nil {
		return 0, err
	}
	e, err := m.Energy(n, mhz)
	if err != nil {
		return 0, err
	}
	return power.EDP(units.Joules(e), units.Seconds(t)), nil
}
