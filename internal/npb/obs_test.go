package npb

import (
	"math"
	"strings"
	"testing"

	"pasp/internal/obs"
)

// TestFTObservedEnergyAttribution is the conservation property on a real
// kernel across cluster sizes and gears: attributing the FT trace per
// (rank, phase) — idle tails included — recovers the run's total energy to
// within float re-association, and the rank coverage is gapless (every
// rank's rows sum to the makespan).
func TestFTObservedEnergyAttribution(t *testing.T) {
	ft := FT{Nx: 16, Ny: 16, Nz: 16, Iters: 2}
	for _, tc := range []struct {
		n   int
		mhz float64
	}{{1, 600}, {2, 1400}, {4, 1400}} {
		w := npbWorld(tc.n, tc.mhz)
		_, res, err := ft.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		rankEnds := make([]float64, len(res.PerRank))
		for i, r := range res.PerRank {
			rankEnds[i] = r.Seconds
		}
		rep := obs.AttributeEnergy(res.Trace, w.Prof, w.State, res.Seconds, rankEnds)
		if math.Abs(rep.TotalJoules-res.Joules) > 1e-9*res.Joules {
			t.Errorf("N=%d f=%g: attributed %.15g J, run total %.15g J",
				tc.n, tc.mhz, rep.TotalJoules, res.Joules)
		}
		wantSec := float64(tc.n) * res.Seconds
		if math.Abs(rep.TotalSeconds-wantSec) > 1e-9*wantSec {
			t.Errorf("N=%d f=%g: attributed %.15g node-seconds, want N×makespan = %.15g",
				tc.n, tc.mhz, rep.TotalSeconds, wantSec)
		}
	}
}

// TestFTPhaseSpans checks the kernel's SetPhase labels surface in the trace
// log on every rank, gapless from 0 to the rank's final clock: every clock
// advance appends one event from the old clock to the new one, so each
// rank's events tile its timeline exactly.
func TestFTPhaseSpans(t *testing.T) {
	w := npbWorld(2, 1400)
	ft := FT{Nx: 16, Ny: 16, Nz: 16, Iters: 2}
	_, res, err := ft.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	last := make([]float64, len(res.PerRank))
	for _, e := range res.Trace.Events() {
		names[e.Phase] = true
		//palint:ignore floateq -- events must tile the rank's clock exactly: each starts where the previous ended
		if e.Start != last[e.Rank] {
			t.Errorf("rank %d: %q event starts at %g, previous ended at %g", e.Rank, e.Phase, e.Start, last[e.Rank])
		}
		last[e.Rank] = e.End
	}
	for _, want := range []string{"ft-init", "ft-alltoall", "ft-checksum"} {
		if !names[want] {
			var have []string
			for n := range names {
				have = append(have, n)
			}
			t.Errorf("phase %q missing from the trace (have %s)", want, strings.Join(have, ", "))
		}
	}
	for rank, end := range last {
		//palint:ignore floateq -- the last event ends at the rank's final clock verbatim
		if end != res.PerRank[rank].Seconds {
			t.Errorf("rank %d: events end at %g, rank clock is %g", rank, end, res.PerRank[rank].Seconds)
		}
	}
}
