package obs

import (
	"fmt"
	"sort"
	"strings"

	"pasp/internal/power"
	"pasp/internal/trace"
	"pasp/internal/units"
)

// IdleTailPhase labels the synthesized interval between a rank's last event
// and the job makespan, during which the node idles waiting for slower
// ranks. mpi's aggregate bills it at zero utilization; AttributeEnergy
// reproduces that arithmetic exactly so the report sums to the run total.
const IdleTailPhase = "idle-tail"

// EnergyRow attributes one rank's time in one phase.
type EnergyRow struct {
	Rank    int     `json:"rank"`
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
	Joules  float64 `json:"joules"`
	// EDP is the row's energy-delay product J·s.
	EDP float64 `json:"edp"`
}

// PhaseEnergy aggregates one phase across all ranks.
type PhaseEnergy struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
	Joules  float64 `json:"joules"`
}

// EnergyReport is the per-phase energy attribution of one run.
type EnergyReport struct {
	// Rows holds one entry per (rank, phase) pair, sorted by rank then
	// phase name, idle tails included.
	Rows []EnergyRow `json:"rows"`
	// TotalSeconds sums row seconds: the cluster's occupied node-seconds
	// (N × makespan when every rank's tail is included).
	TotalSeconds float64 `json:"total_seconds"`
	// TotalJoules sums row joules and equals the run's Result.Joules to
	// within float re-association (the property test pins 1e-9 relative).
	TotalJoules float64 `json:"total_joules"`
}

// AttributeEnergy decomposes a run's energy by (rank, phase). Every trace
// event already carries the node wattage the meter priced it at, so a
// phase's joules are Σ watts×duration over its events; the idle tail of
// each rank is billed at zero utilization at the job's base state, using
// the same expression as mpi's aggregate. rankEnds[i] is rank i's final
// virtual clock; makespan is the job's Result.Seconds.
func AttributeEnergy(l *trace.Log, prof power.Profile, st power.PState, makespan float64, rankEnds []float64) *EnergyReport {
	type key struct {
		rank  int
		phase string
	}
	acc := map[key]*EnergyRow{}
	add := func(rank int, phase string, sec, joules float64) {
		k := key{rank, phase}
		r, ok := acc[k]
		if !ok {
			r = &EnergyRow{Rank: rank, Phase: phase}
			acc[k] = r
		}
		r.Seconds += sec
		r.Joules += joules
	}
	for _, e := range l.Events() {
		d := e.Duration()
		add(e.Rank, e.Phase, d, float64(units.Watts(e.Watts).Energy(units.Seconds(d))))
	}
	for rank, end := range rankEnds {
		idle := units.Seconds(makespan - end)
		if idle <= 0 {
			continue
		}
		add(rank, IdleTailPhase, float64(idle), float64(prof.NodePower(st, 0).Energy(idle)))
	}
	rep := &EnergyReport{}
	for _, r := range acc {
		r.EDP = power.EDP(units.Joules(r.Joules), units.Seconds(r.Seconds))
		rep.Rows = append(rep.Rows, *r)
	}
	sort.Slice(rep.Rows, func(i, j int) bool {
		a, b := rep.Rows[i], rep.Rows[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Phase < b.Phase
	})
	// Total in row order, not map order: float addition is not
	// associative, so the map's random order would move the last bits.
	for _, r := range rep.Rows {
		rep.TotalSeconds += r.Seconds
		rep.TotalJoules += r.Joules
	}
	return rep
}

// ByPhase aggregates the report across ranks, sorted by descending joules
// with the phase name as tie-break, so the dominant phase leads.
func (r *EnergyReport) ByPhase() []PhaseEnergy {
	acc := map[string]*PhaseEnergy{}
	for _, row := range r.Rows {
		p, ok := acc[row.Phase]
		if !ok {
			p = &PhaseEnergy{Phase: row.Phase}
			acc[row.Phase] = p
		}
		p.Seconds += row.Seconds
		p.Joules += row.Joules
	}
	out := make([]PhaseEnergy, 0, len(acc))
	for _, p := range acc {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		//palint:ignore floateq -- exact inequality as sort tie-break: equal values fall through to the name key
		if out[i].Joules != out[j].Joules {
			return out[i].Joules > out[j].Joules
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// Text renders the per-phase aggregation as a table for the CLI drivers.
func (r *EnergyReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %14s %14s\n", "phase", "seconds", "joules")
	for _, p := range r.ByPhase() {
		fmt.Fprintf(&b, "%-24s %14.6f %14.6f\n", p.Phase, p.Seconds, p.Joules)
	}
	fmt.Fprintf(&b, "%-24s %14.6f %14.6f\n", "total", r.TotalSeconds, r.TotalJoules)
	return b.String()
}
