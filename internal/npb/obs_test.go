package npb

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pasp/internal/mpi"
	"pasp/internal/obs"
)

// observedRun is one traced run of a diffKernels() kernel.
type observedRun struct {
	kernel string
	n      int
	w      mpi.World
	res    *mpi.Result
}

func (r observedRun) String() string { return fmt.Sprintf("%s at N=%d", r.kernel, r.n) }

// rankEnds returns each rank's final virtual clock.
func (r observedRun) rankEnds() []float64 {
	ends := make([]float64, len(r.res.PerRank))
	for i, pr := range r.res.PerRank {
		ends[i] = pr.Seconds
	}
	return ends
}

// attribute prices the run's trace per (rank, phase).
func (r observedRun) attribute() *obs.EnergyReport {
	return obs.AttributeEnergy(r.res.Trace, r.w.Prof, r.w.State, r.res.Seconds, r.rankEnds())
}

// observedRuns runs every diffKernels() kernel at N = 1 at 600 MHz and at
// N ∈ {2, 4, 8} at 1400 MHz.
func observedRuns(t *testing.T) []observedRun {
	t.Helper()
	var runs []observedRun
	for _, k := range diffKernels() {
		for _, tc := range []struct {
			n   int
			mhz float64
		}{{1, 600}, {2, 1400}, {4, 1400}, {8, 1400}} {
			w := npbWorld(tc.n, tc.mhz)
			_, res, err := k.run(w)
			if err != nil {
				t.Fatalf("%s at N=%d: %v", k.name, tc.n, err)
			}
			runs = append(runs, observedRun{k.name, tc.n, w, res})
		}
	}
	return runs
}

// TestObservedEnergyAttribution is the conservation property on every
// kernel across cluster sizes and gears: attributing the trace per (rank,
// phase) — idle tails included — recovers the run's total energy to within
// float re-association, and the rank coverage is gapless (the rows sum to
// N × makespan node-seconds).
func TestObservedEnergyAttribution(t *testing.T) {
	for _, run := range observedRuns(t) {
		rep := run.attribute()
		if math.Abs(rep.TotalJoules-run.res.Joules) > 1e-9*run.res.Joules {
			t.Errorf("%s: attributed %.15g J, run total %.15g J", run, rep.TotalJoules, run.res.Joules)
		}
		wantSec := float64(run.n) * run.res.Seconds
		if math.Abs(rep.TotalSeconds-wantSec) > 1e-9*wantSec {
			t.Errorf("%s: attributed %.15g node-seconds, want N×makespan = %.15g", run, rep.TotalSeconds, wantSec)
		}
	}
}

// TestAttributionTotalsBitStable: the report's totals and the critical
// phase's share sum over groups kept in maps, so unless the sums run in a
// fixed order their last bits follow Go's randomized map iteration.
// Repeated calls on one log must give one bit pattern.
func TestAttributionTotalsBitStable(t *testing.T) {
	for _, run := range observedRuns(t) {
		if run.n != 8 {
			continue
		}
		first := run.attribute()
		phase, share := run.res.Trace.CriticalPhase()
		for i := 0; i < 100; i++ {
			rep := run.attribute()
			if math.Float64bits(rep.TotalJoules) != math.Float64bits(first.TotalJoules) ||
				math.Float64bits(rep.TotalSeconds) != math.Float64bits(first.TotalSeconds) {
				t.Fatalf("%s: call %d totals %.17g J, %.17g s; first call %.17g J, %.17g s",
					run, i, rep.TotalJoules, rep.TotalSeconds, first.TotalJoules, first.TotalSeconds)
			}
			p, s := run.res.Trace.CriticalPhase()
			if p != phase || math.Float64bits(s) != math.Float64bits(share) {
				t.Fatalf("%s: call %d critical phase %s at %.17g; first call %s at %.17g", run, i, p, s, phase, share)
			}
		}
	}
}

// TestPhaseSpans checks every kernel's trace tiles each rank's timeline,
// gapless from 0 to the rank's final clock: every clock advance appends one
// event from the old clock to the new one. FT's SetPhase labels must also
// surface in the trace.
func TestPhaseSpans(t *testing.T) {
	for _, run := range observedRuns(t) {
		names := map[string]bool{}
		last := make([]float64, len(run.res.PerRank))
		for _, e := range run.res.Trace.Events() {
			names[e.Phase] = true
			//palint:ignore floateq -- events must tile the rank's clock exactly: each starts where the previous ended
			if e.Start != last[e.Rank] {
				t.Errorf("%s: rank %d: %q event starts at %g, previous ended at %g", run, e.Rank, e.Phase, e.Start, last[e.Rank])
			}
			last[e.Rank] = e.End
		}
		for rank, end := range last {
			//palint:ignore floateq -- the last event ends at the rank's final clock verbatim
			if end != run.res.PerRank[rank].Seconds {
				t.Errorf("%s: rank %d: events end at %g, rank clock is %g", run, rank, end, run.res.PerRank[rank].Seconds)
			}
		}
		if run.kernel != "ft" || run.n < 2 {
			continue
		}
		for _, want := range []string{"ft-init", "ft-alltoall", "ft-checksum"} {
			if !names[want] {
				var have []string
				for n := range names {
					have = append(have, n)
				}
				t.Errorf("%s: phase %q missing from the trace (have %s)", run, want, strings.Join(have, ", "))
			}
		}
	}
}
