package dvfs

import (
	"strings"
	"testing"

	"pasp/internal/cluster"
	"pasp/internal/mpi"
	"pasp/internal/npb"
	"pasp/internal/power"
)

func ftRun(ft npb.FT) func(w mpi.World) (*mpi.Result, error) {
	return func(w mpi.World) (*mpi.Result, error) {
		_, r, err := ft.Run(w)
		return r, err
	}
}

func TestPolicyValidate(t *testing.T) {
	prof := power.PentiumM()
	if err := FTPolicy(prof).Validate(); err != nil {
		t.Errorf("FT policy invalid: %v", err)
	}
	if err := LUPolicy(prof).Validate(); err != nil {
		t.Errorf("LU policy invalid: %v", err)
	}
	bad := GearPolicy{Default: prof.TopState()}
	if err := bad.Validate(); err == nil {
		t.Error("policy without phases accepted")
	}
	neg := FTPolicy(prof)
	neg.SwitchSec = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative switch time accepted")
	}
}

// The paper's motivating claim: on a communication-bound code, scheduling
// the communication phases at the bottom gear saves substantial energy at
// a small slowdown.
func TestFTScheduleSavesEnergy(t *testing.T) {
	p := cluster.PentiumM()
	w, err := p.World(8, 1400)
	if err != nil {
		t.Fatal(err)
	}
	ft := npb.FT{Nx: 16, Ny: 16, Nz: 16, Iters: 3, Scale: 64}
	cmp, err := Compare(w, FTPolicy(p.Prof), ftRun(ft))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.EnergySavings() < 0.10 {
		t.Errorf("energy savings %.1f%%, want ≥ 10%% on a comm-bound code", cmp.EnergySavings()*100)
	}
	if cmp.Slowdown() > 0.10 {
		t.Errorf("slowdown %.1f%%, want ≤ 10%%", cmp.Slowdown()*100)
	}
	if !strings.Contains(cmp.String(), "energy") {
		t.Error("comparison rendering broken")
	}
}

// On a computation-bound code the policy must be near-neutral: there is
// hardly any communication to slow down.
func TestEPScheduleNearNeutral(t *testing.T) {
	p := cluster.PentiumM()
	w, err := p.World(4, 1400)
	if err != nil {
		t.Fatal(err)
	}
	pol := GearPolicy{
		Default:   p.Prof.TopState(),
		Phases:    map[string]power.PState{"ep-allreduce": p.Prof.BaseState()},
		SwitchSec: 50e-6,
	}
	ep := npb.EP{LogPairs: 16, ScaleLog: 4}
	cmp, err := Compare(w, pol, func(w mpi.World) (*mpi.Result, error) {
		_, r, err := ep.Run(w)
		return r, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := cmp.Slowdown(); s > 0.02 {
		t.Errorf("EP slowdown %.2f%%, want ≈ 0", s*100)
	}
	if sav := cmp.EnergySavings(); sav > 0.05 {
		t.Errorf("EP energy savings %.1f%% suspiciously high for a compute-bound code", sav*100)
	}
}

func TestGearSwitchCostCharged(t *testing.T) {
	p := cluster.PentiumM()
	w, err := p.World(2, 1400)
	if err != nil {
		t.Fatal(err)
	}
	ft := npb.FT{Nx: 16, Ny: 16, Nz: 8, Iters: 2, Scale: 1}
	cheap := FTPolicy(p.Prof)
	cheap.SwitchSec = 0
	costly := FTPolicy(p.Prof)
	costly.SwitchSec = 10e-3 // absurd 10 ms per switch
	a, err := Compare(w, cheap, ftRun(ft))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compare(w, costly, ftRun(ft))
	if err != nil {
		t.Fatal(err)
	}
	if b.ScheduledSec <= a.ScheduledSec {
		t.Errorf("gear-switch cost not charged: %g vs %g", b.ScheduledSec, a.ScheduledSec)
	}
}

func TestApplySetsHook(t *testing.T) {
	p := cluster.PentiumM()
	w, err := p.World(2, 600)
	if err != nil {
		t.Fatal(err)
	}
	pol := FTPolicy(p.Prof)
	got, err := pol.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	if got.OnPhase == nil {
		t.Error("hook not installed")
	}
	if got.State != p.Prof.TopState() {
		t.Error("initial state not the default gear")
	}
	if got.GearSwitchSec != pol.SwitchSec {
		t.Error("switch cost not propagated")
	}
}

// The scheduled run's trace must show the gear actually dropping: the
// dvfs-switch phase appears and comm time at the low gear is recorded.
func TestScheduledTraceShowsSwitches(t *testing.T) {
	p := cluster.PentiumM()
	w, err := p.World(2, 1400)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := FTPolicy(p.Prof).Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	ft := npb.FT{Nx: 16, Ny: 16, Nz: 8, Iters: 2}
	_, res, err := ft.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.ByPhase()["dvfs-switch"] <= 0 {
		t.Error("no gear switches in trace")
	}
}

// The power draw of a scheduled run must actually dip during the derated
// phases — the signature the paper's PowerPack-style measurements show for
// DVFS scheduling. Each trace event carries its node's draw: some must reach
// the top gear's full power, and some must fall below the least a node at
// the top gear draws, which only a lower gear can.
func TestScheduledPowerProfileDips(t *testing.T) {
	p := cluster.PentiumM()
	w, err := p.World(4, 1400)
	if err != nil {
		t.Fatal(err)
	}
	ft := npb.FT{Nx: 16, Ny: 16, Nz: 16, Iters: 3, Scale: 64}
	sched, err := FTPolicy(p.Prof).Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := ft.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	top := float64(p.Prof.NodePower(p.Prof.TopState(), 1))
	topIdle := float64(p.Prof.NodePower(p.Prof.TopState(), 0))
	sawHigh, sawLow := false, false
	for _, e := range res.Trace.Events() {
		if e.Watts > 0.95*top {
			sawHigh = true
		}
		if e.Watts > 0 && e.Watts < topIdle {
			sawLow = true
		}
	}
	if !sawHigh {
		t.Error("no full-power events in the trace")
	}
	if !sawLow {
		t.Error("no low-gear events in the trace; the schedule never engaged")
	}
}
