package dvfs

import (
	"testing"

	"pasp/internal/cluster"
	"pasp/internal/npb"
	"pasp/internal/obs"
	"pasp/internal/trace"
)

// TestPolicyGearSwitchMetric cross-checks the observability layer against
// the trace under a live DVFS policy: the mpi.gear_switches counter must
// equal the number of dvfs-switch stall events the runtime logged — every
// actual P-state change charges one stall when SwitchSec > 0.
func TestPolicyGearSwitchMetric(t *testing.T) {
	plat := cluster.PentiumM()
	w, err := plat.World(4, 1400)
	if err != nil {
		t.Fatal(err)
	}
	applied, err := FTPolicy(plat.Prof).Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	applied.Metrics = reg
	ft := npb.FT{Nx: 16, Ny: 16, Nz: 16, Iters: 2}
	_, res, err := ft.Run(applied)
	if err != nil {
		t.Fatal(err)
	}
	switches := 0
	for _, e := range res.Trace.Events() {
		if e.Phase == "dvfs-switch" && e.Kind == trace.Comm {
			switches++
		}
	}
	if switches == 0 {
		t.Fatal("policy run logged no dvfs-switch events; the policy did not engage")
	}
	got := reg.Snapshot().Counter("mpi.gear_switches")
	if got != float64(switches) { //palint:ignore floateq -- exact integer counts
		t.Errorf("mpi.gear_switches = %g, trace has %d dvfs-switch stalls", got, switches)
	}
}
