package experiments

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"pasp/internal/cluster"
	"pasp/internal/faults"
	"pasp/internal/mpi"
)

// fullMix is every chaos knob at once, as a faults.ParseSpec string
// without its seed.
const fullMix = "jitter=0.5,drop=0.01,degradeprob=0.05,degradefactor=2,straggler=0.1,slowdown=1.5"

// requireSameResult fails unless replayed equals direct in every Result
// field, the merged trace compared by its TimelineCSV bytes.
func requireSameResult(t *testing.T, label string, direct, replayed *mpi.Result) {
	t.Helper()
	if direct.Trace.TimelineCSV() != replayed.Trace.TimelineCSV() {
		t.Errorf("%s: timelines differ", label)
	}
	a, b := *direct, *replayed
	a.Trace, b.Trace = nil, nil
	if math.Float64bits(a.Seconds) != math.Float64bits(b.Seconds) || math.Float64bits(a.Joules) != math.Float64bits(b.Joules) || !reflect.DeepEqual(a, b) {
		t.Errorf("%s: results differ:\n direct   %+v\n replayed %+v", label, a, b)
	}
}

// TestReplayAcrossFaultAxes is the oracle for re-timing a tape under a
// fault config it was not recorded with. The chaos harness draws a fixed
// number of values per message and per collective, each a pure function
// of (seed, rank, draw index), so a tape is as replayable across fault
// configs as across gears. Each quick-suite kernel at N ∈ {2, 4} is
// recorded and replayed along two axes:
//
//   - magnitude: a clean tape recorded at the base gear, replayed at the
//     base gear under DefaultRobustnessFaults(11).Scale(m), m ∈ {0.5, 1, 2};
//   - seed: a tape recorded at the base gear under the full mix with seed
//     1, replayed at the top gear under seeds 2 to 4.
//
// Every replay must equal a direct run under its own config.
func TestReplayAcrossFaultAxes(t *testing.T) {
	s := Quick()
	ks := s.Kernels()
	for _, name := range s.KernelNames() {
		k := ks[name]
		base, top := k.Grid.MHz[0], k.Grid.MHz[len(k.Grid.MHz)-1]
		world := func(n int, mhz float64, cfg faults.Config) mpi.World {
			t.Helper()
			p := s.Platform
			p.Faults = cfg
			w, err := p.World(n, mhz)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		record := func(n int, mhz float64, cfg faults.Config) *mpi.Recording {
			t.Helper()
			w := world(n, mhz, cfg)
			w.Record = mpi.NewRecording()
			if _, err := k.Run(w); err != nil {
				t.Fatalf("%s N=%d: record: %v", name, n, err)
			}
			return w.Record
		}
		check := func(label string, rec *mpi.Recording, n int, mhz float64, cfg faults.Config) {
			t.Helper()
			direct, err := k.Run(world(n, mhz, cfg))
			if err != nil {
				t.Fatalf("%s: direct: %v", label, err)
			}
			replayed, err := mpi.Replay(world(n, mhz, cfg), rec)
			if err != nil {
				t.Fatalf("%s: replay: %v", label, err)
			}
			requireSameResult(t, label, direct, replayed)
		}
		for _, n := range []int{2, 4} {
			clean := record(n, base, faults.Config{})
			for _, m := range []float64{0.5, 1, 2} {
				check(fmt.Sprintf("%s N=%d magnitude %g", name, n, m), clean, n, base, DefaultRobustnessFaults(11).Scale(m))
			}
			seeded := func(seed int) faults.Config {
				t.Helper()
				cfg, err := faults.ParseSpec(fmt.Sprintf("seed=%d,%s", seed, fullMix))
				if err != nil {
					t.Fatal(err)
				}
				return cfg
			}
			tape := record(n, base, seeded(1))
			for seed := 2; seed <= 4; seed++ {
				check(fmt.Sprintf("%s N=%d seed %d at %g MHz", name, n, seed, top), tape, n, top, seeded(seed))
			}
		}
	}
}

// TestReplayAcrossPlatforms is the oracle for re-timing a tape on a
// platform it was not recorded on. A platform enters a run only through
// the timing models, so each quick-suite kernel at N ∈ {2, 4} is recorded
// once on the stock platform at the base gear and replayed, at the base
// and the top gear, on each ablation platform: no flow-concurrency limit,
// no endpoint CPU cost per message or byte, and no low-gear bus-speed
// drop. One more case is Tier-1's only kernel run past 16 ranks: FT at
// N = 64 on the scale suite, recorded at 600 MHz and replayed at 1400 MHz
// on the stock platform. Every replay must equal a direct run on its own
// platform.
func TestReplayAcrossPlatforms(t *testing.T) {
	s := Quick()
	ideal, noCPU, flat := s.Platform, s.Platform, s.Platform
	ideal.Net.FlowConcurrency = 0
	noCPU.Net.MsgCPUIns, noCPU.Net.ByteCPUIns = 0, 0
	flat.Mach.BusDrop = false
	platforms := []struct {
		name string
		p    cluster.Platform
	}{{"contention", ideal}, {"commcpu", noCPU}, {"busdrop", flat}}
	world := func(p cluster.Platform, n int, mhz float64) mpi.World {
		t.Helper()
		w, err := p.World(n, mhz)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	ks := s.Kernels()
	for _, name := range s.KernelNames() {
		k := ks[name]
		base, top := k.Grid.MHz[0], k.Grid.MHz[len(k.Grid.MHz)-1]
		for _, n := range []int{2, 4} {
			w := world(s.Platform, n, base)
			w.Record = mpi.NewRecording()
			if _, err := k.Run(w); err != nil {
				t.Fatalf("%s N=%d: record: %v", name, n, err)
			}
			for _, pl := range platforms {
				for _, mhz := range []float64{base, top} {
					label := fmt.Sprintf("%s N=%d on %s at %g MHz", name, n, pl.name, mhz)
					direct, err := k.Run(world(pl.p, n, mhz))
					if err != nil {
						t.Fatalf("%s: direct: %v", label, err)
					}
					replayed, err := mpi.Replay(world(pl.p, n, mhz), w.Record)
					if err != nil {
						t.Fatalf("%s: replay: %v", label, err)
					}
					requireSameResult(t, label, direct, replayed)
				}
			}
		}
	}

	sc := Scale()
	ft, err := sc.Kernel("ft")
	if err != nil {
		t.Fatal(err)
	}
	w := world(sc.Platform, 64, 600)
	w.Record = mpi.NewRecording()
	if _, err := ft.Run(w); err != nil {
		t.Fatalf("ft N=64 on the scale suite: record: %v", err)
	}
	direct, err := ft.Run(world(sc.Platform, 64, 1400))
	if err != nil {
		t.Fatalf("ft N=64 on the scale suite: direct: %v", err)
	}
	replayed, err := mpi.Replay(world(sc.Platform, 64, 1400), w.Record)
	if err != nil {
		t.Fatalf("ft N=64 on the scale suite: replay: %v", err)
	}
	requireSameResult(t, "ft N=64 on the scale suite at 1400 MHz", direct, replayed)
}
