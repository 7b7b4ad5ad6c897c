package dvfs_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"pasp/internal/dvfs"
	"pasp/internal/experiments"
	"pasp/internal/mpi"
	"pasp/internal/units"
)

// quickFTWorld is the quick suite's top-gear world of four ranks, the
// setting of the reproduction's DVFS comparisons at quick scale.
func quickFTWorld(t *testing.T) (experiments.Suite, mpi.World) {
	t.Helper()
	s := experiments.Quick()
	w, err := s.Platform.World(4, s.Grid.MHz[len(s.Grid.MHz)-1])
	if err != nil {
		t.Fatal(err)
	}
	return s, w
}

// serialComparison runs the baseline world and then the scheduled world
// that apply makes of w, one after the other, as the comparison's
// definition reads.
func serialComparison(t *testing.T, w mpi.World, apply func(mpi.World) (mpi.World, error), run func(mpi.World) (*mpi.Result, error)) dvfs.Comparison {
	t.Helper()
	sched, err := apply(w)
	if err != nil {
		t.Fatal(err)
	}
	base := w
	base.State = sched.State
	base.OnPhase = nil
	base.GearSwitchSec = 0
	baseRes, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	schedRes, err := run(sched)
	if err != nil {
		t.Fatal(err)
	}
	return dvfs.Comparison{
		BaselineSec:     units.Seconds(baseRes.Seconds),
		BaselineJoules:  units.Joules(baseRes.Joules),
		ScheduledSec:    units.Seconds(schedRes.Seconds),
		ScheduledJoules: units.Joules(schedRes.Joules),
	}
}

// TestCompareMatchesSerialRuns pins that running the two worlds side by
// side changes no bit: Compare's seconds and joules equal two serial runs.
func TestCompareMatchesSerialRuns(t *testing.T) {
	s, w := quickFTWorld(t)
	pol := dvfs.FTPolicy(s.Platform.Prof)
	got, err := dvfs.Compare(w, pol, s.RunFT)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialComparison(t, w, pol.Apply, s.RunFT); got != want {
		t.Errorf("Compare = %+v, serial runs give %+v", got, want)
	}
}

// TestCompareAdaptiveMatchesSerialRuns does the same for the online tuner,
// whose converged gears must also match a fresh tuner's serial run.
func TestCompareAdaptiveMatchesSerialRuns(t *testing.T) {
	s, w := quickFTWorld(t)
	ft := s.FT
	ft.Iters = 24
	run := func(w mpi.World) (*mpi.Result, error) {
		_, r, err := ft.Run(w)
		return r, err
	}
	a := &dvfs.Adaptive{Prof: s.Platform.Prof, SwitchSec: 50e-6}
	got, chosen, err := dvfs.CompareAdaptive(w, a, run)
	if err != nil {
		t.Fatal(err)
	}
	fresh := &dvfs.Adaptive{Prof: s.Platform.Prof, SwitchSec: 50e-6}
	if want := serialComparison(t, w, fresh.Apply, run); got != want {
		t.Errorf("CompareAdaptive = %+v, serial runs give %+v", got, want)
	}
	if want := fresh.Chosen(0); len(chosen) == 0 || !reflect.DeepEqual(chosen, want) {
		t.Errorf("rank 0 converged to %v, a serial run to %v", chosen, want)
	}
}

// TestCompareErrorPrecedence pins which run a failed comparison names: the
// baseline whenever it failed, the scheduled run only when it alone did.
func TestCompareErrorPrecedence(t *testing.T) {
	s, w := quickFTWorld(t)
	pol := dvfs.FTPolicy(s.Platform.Prof)
	boom := errors.New("boom")
	for _, c := range []struct {
		name   string
		run    func(mpi.World) (*mpi.Result, error)
		prefix string
	}{
		{"both fail", func(mpi.World) (*mpi.Result, error) { return nil, boom }, "dvfs: baseline:"},
		{"scheduled fails", func(w mpi.World) (*mpi.Result, error) {
			if w.OnPhase != nil {
				return nil, boom
			}
			return s.RunFT(w)
		}, "dvfs: scheduled:"},
	} {
		_, err := dvfs.Compare(w, pol, c.run)
		if err == nil || !strings.HasPrefix(err.Error(), c.prefix) || !errors.Is(err, boom) {
			t.Errorf("%s: error %v, want one starting %q that wraps %v", c.name, err, c.prefix, boom)
		}
	}
}
