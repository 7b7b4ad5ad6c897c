package dvfs

import (
	"strings"
	"testing"

	"pasp/internal/cluster"
	"pasp/internal/mpi"
	"pasp/internal/npb"
	"pasp/internal/power"
)

func TestGearPolicyValidate(t *testing.T) {
	prof := power.PentiumM()
	ok := GearPolicy{Default: prof.TopState(), Phases: map[string]power.PState{"a": prof.BaseState()}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
	if err := (GearPolicy{}).Validate(); err == nil {
		t.Error("zero default accepted")
	}
	bad := GearPolicy{Default: prof.TopState(), Phases: map[string]power.PState{"a": {}}}
	if err := bad.Validate(); err == nil {
		t.Error("zero phase gear accepted")
	}
	neg := ok
	neg.SwitchSec = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative switch accepted")
	}
}

func TestGearPolicyString(t *testing.T) {
	prof := power.PentiumM()
	p := GearPolicy{Default: prof.TopState(), Phases: map[string]power.PState{
		"comm": prof.BaseState(),
		"pack": prof.States[2],
	}}
	s := p.String()
	for _, want := range []string{"1400MHz", "comm→600MHz", "pack→1000MHz"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q: %s", want, s)
		}
	}
}

func TestPhaseModelTime(t *testing.T) {
	prof := power.PentiumM()
	m := PhaseModel{FlatSec: 1, ScaledSecMHz: 600}
	if got := m.Time(prof.BaseState()); got != 2 {
		t.Errorf("time at 600 MHz = %g, want 2", got)
	}
	if got := m.Time(prof.TopState()); got != 1+600.0/1400 {
		t.Errorf("time at 1400 MHz = %g", got)
	}
}

func TestOptimizeEDPEndpoints(t *testing.T) {
	prof := power.PentiumM()
	pol, err := OptimizeEDP(prof, 8, map[string]PhaseModel{
		"flat":   {FlatSec: 5, ScaledSecMHz: 0},
		"scaled": {FlatSec: 0, ScaledSecMHz: 6000},
		"mixed":  {FlatSec: 2, ScaledSecMHz: 1500},
	}, 50e-6)
	if err != nil {
		t.Fatal(err)
	}
	if got := pol.Phases["flat"]; got != prof.BaseState() {
		t.Errorf("flat phase gear %v, want bottom", got)
	}
	if got := pol.Phases["scaled"]; got != prof.TopState() {
		t.Errorf("scaled phase gear %v, want top", got)
	}
	mixed := pol.Phases["mixed"]
	if mixed == prof.BaseState() || mixed == prof.TopState() {
		t.Errorf("mixed phase gear %v, want an intermediate gear", mixed)
	}
}

func TestOptimizeEDPValidation(t *testing.T) {
	prof := power.PentiumM()
	if _, err := OptimizeEDP(prof, 0, map[string]PhaseModel{"a": {}}, 0); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := OptimizeEDP(prof, 2, nil, 0); err == nil {
		t.Error("empty phases accepted")
	}
	if _, err := OptimizeEDP(prof, 2, map[string]PhaseModel{"a": {FlatSec: -1}}, 0); err == nil {
		t.Error("negative coefficient accepted")
	}
}

// An EDP-optimized multi-gear schedule must improve the measured EDP of a
// communication-bound run over the all-top baseline.
func TestCompareGearsImprovesEDP(t *testing.T) {
	p := cluster.PentiumM()
	w, err := p.World(8, 1400)
	if err != nil {
		t.Fatal(err)
	}
	ft := npb.FT{Nx: 16, Ny: 16, Nz: 16, Iters: 3, Scale: 64}
	pol := GearPolicy{
		Default:   p.Prof.TopState(),
		Phases:    map[string]power.PState{"ft-alltoall": p.Prof.BaseState(), "ft-checksum": p.Prof.BaseState()},
		SwitchSec: 50e-6,
	}
	cmp, err := Compare(w, pol, func(w2 mpi.World) (*mpi.Result, error) {
		_, r, err := ft.Run(w2)
		return r, err
	})
	if err != nil {
		t.Fatal(err)
	}
	baseEDP := power.EDP(cmp.BaselineJoules, cmp.BaselineSec)
	schedEDP := power.EDP(cmp.ScheduledJoules, cmp.ScheduledSec)
	if schedEDP >= baseEDP {
		t.Errorf("scheduled EDP %g not below baseline %g", schedEDP, baseEDP)
	}
}
