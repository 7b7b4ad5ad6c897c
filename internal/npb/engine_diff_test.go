package npb

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pasp/internal/faults"
	"pasp/internal/mpi"
	"pasp/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// diffChaosCfg is the fixed chaos seed of the differential matrix: every
// injector class enabled, so the digests cover the retransmission and
// straggler paths too, not just the clean schedule.
var diffChaosCfg = faults.Config{
	Seed:              7,
	LatencyJitterFrac: 0.5,
	DropProb:          0.05,
	DegradeProb:       0.1,
	DegradeFactor:     2,
	StragglerFrac:     0.25,
	StragglerSlowdown: 1.5,
}

// diffModes runs each digest case clean and under diffChaosCfg.
var diffModes = []struct {
	label string
	cfg   faults.Config
}{{"clean", faults.Config{}}, {"chaos", diffChaosCfg}}

// diffKernels is the full NAS suite in small classes that validate on
// every rank count of the matrix (CG pins Band=4 so its halo of 16 rows
// fits the 16-rank split; MG needs ≥ 2 planes per rank, hence 63³).
type diffKernel struct {
	name string
	// run returns the kernel's own result (its Run's first value) too.
	run func(w mpi.World) (any, *mpi.Result, error)
}

func diffKernels() []diffKernel {
	return []diffKernel{
		{"ep", diffRun(EP{LogPairs: 14, ScaleLog: 6}.Run)},
		{"ft", diffRun(FT{Nx: 16, Ny: 16, Nz: 16, Iters: 2}.Run)},
		{"lu", diffRun(LU{N: 16, Iters: 2}.Run)},
		{"cg", diffRun(CG{Size: 256, Band: 4, OuterIters: 1, CGIters: 5}.Run)},
		{"mg", diffRun(MG{Size: 63, Cycles: 1}.Run)},
		{"is", diffRun(IS{LogKeys: 12, LogMaxKey: 15, Iters: 2}.Run)},
		{"sp", diffRun(SP{N: 16, Steps: 2}.Run)},
	}
}

// diffRun adapts a kernel's Run to diffKernel.run.
func diffRun[R any](run func(mpi.World) (R, *mpi.Result, error)) func(mpi.World) (any, *mpi.Result, error) {
	return func(w mpi.World) (any, *mpi.Result, error) {
		out, res, err := run(w)
		return out, res, err
	}
}

// checkDigestGolden compares digest lines of the form "<case> <component>
// <value>" line by line against the named testdata file, so a mismatch
// names the case and component that drifted. Lines starting with # are
// comments. The file is rewritten under -update.
func checkDigestGolden(t *testing.T, name, header string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(header+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want []string
	for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.HasPrefix(l, "#") {
			want = append(want, l)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d digest lines, %s has %d", len(got), name, len(want))
	}
	for i, w := range want {
		if got[i] != w {
			f := strings.SplitN(w, " ", 3)
			t.Errorf("%s %s drifted from %s:\n got  %s\n want %s", f[0], f[1], name, got[i], w)
		}
	}
}

// kernelDigest runs one kernel with the observability recorder attached and
// renders what the matrix pins as digest lines: SHA-256 of the timeline, of
// the metric snapshot text and of the per-(rank, phase) energy rows, plus
// makespan and energy at full precision.
func kernelDigest(t *testing.T, label string, run func(mpi.World) (any, *mpi.Result, error), n int, cfg faults.Config) []string {
	t.Helper()
	w := npbWorld(n, 1400)
	w.Faults = cfg
	rec := obs.NewRecorder()
	w.Obs = rec
	_, res, err := run(w)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	rankEnds := make([]float64, len(res.PerRank))
	for i, r := range res.PerRank {
		rankEnds[i] = r.Seconds
	}
	var rows strings.Builder
	for _, r := range obs.AttributeEnergy(res.Trace, w.Prof, w.State, res.Seconds, rankEnds).Rows {
		fmt.Fprintf(&rows, "%d %s %.17g %.17g %.17g\n", r.Rank, r.Phase, r.Seconds, r.Joules, r.EDP)
	}
	return []string{
		fmt.Sprintf("%s timeline %x", label, sha256.Sum256([]byte(res.Trace.TimelineCSV()))),
		fmt.Sprintf("%s metrics %x", label, sha256.Sum256([]byte(rec.Metrics().Snapshot().Text()))),
		fmt.Sprintf("%s energy %x", label, sha256.Sum256([]byte(rows.String()))),
		fmt.Sprintf("%s seconds %.17g", label, res.Seconds),
		fmt.Sprintf("%s joules %.17g", label, res.Joules),
	}
}

// TestEngineDifferentialMatrix is the engine differential at the kernel
// level: every NAS kernel, at N ∈ {2, 4, 8, 16}, clean and under a fixed
// chaos seed, against the frozen output of the retired goroutine engine.
// That engine was a second runtime sharing only the timing code, and
// testdata/kernel_matrix.golden holds digests of its timelines, metric
// snapshots and energy attributions, so the file is an oracle independent
// of how the remaining engine blocks and wakes ranks. The mpi-level
// TestEngineDifferential pins the primitives; this matrix pins every
// composition of them the reproduction actually runs.
func TestEngineDifferentialMatrix(t *testing.T) {
	var got []string
	for _, k := range diffKernels() {
		for _, n := range []int{2, 4, 8, 16} {
			for _, mode := range diffModes {
				label := fmt.Sprintf("%s/n%d/%s", k.name, n, mode.label)
				got = append(got, kernelDigest(t, label, k.run, n, mode.cfg)...)
			}
		}
	}
	checkDigestGolden(t, "kernel_matrix.golden",
		"# NAS kernel matrix digests: <case> <component> <value>.\n# Regenerate: go test ./internal/npb -run TestEngineDifferentialMatrix -update\n", got)
}

// TestWorldSizeOneGolden pins every NAS kernel at N = 1, the column every
// power-aware speedup S_N(w,f) = T_1(w,f0)/T_N(w,f) divides by, clean and
// under diffChaosCfg. Per case it digests the kernel's own result, and the
// timeline, makespan and energy of a direct 600 MHz run that records its
// tape and of that tape replayed at 1400 MHz. The kernel matrix and the
// comm log start at N = 2, so this file is the only byte-exact record of
// the single-rank paths.
func TestWorldSizeOneGolden(t *testing.T) {
	var got []string
	for _, k := range diffKernels() {
		for _, mode := range diffModes {
			label := fmt.Sprintf("%s/n1/%s", k.name, mode.label)
			w := npbWorld(1, 600)
			w.Faults = mode.cfg
			tape := mpi.NewRecording()
			w.Record = tape
			out, direct, err := k.run(w)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			target := npbWorld(1, 1400)
			target.Faults = mode.cfg
			replayed, err := mpi.Replay(target, tape)
			if err != nil {
				t.Fatalf("%s replay: %v", label, err)
			}
			got = append(got, fmt.Sprintf("%s result %x", label, sha256.Sum256([]byte(fmt.Sprintf("%v", out)))))
			for _, run := range []struct {
				name string
				res  *mpi.Result
			}{{"direct", direct}, {"replay", replayed}} {
				got = append(got,
					fmt.Sprintf("%s %s-timeline %x", label, run.name, sha256.Sum256([]byte(run.res.Trace.TimelineCSV()))),
					fmt.Sprintf("%s %s-seconds %.17g", label, run.name, run.res.Seconds),
					fmt.Sprintf("%s %s-joules %.17g", label, run.name, run.res.Joules))
			}
		}
	}
	checkDigestGolden(t, "world_size_one.golden",
		"# NAS kernels at N = 1: <case> <component> <value>; direct runs at 600 MHz, their tapes replayed at 1400 MHz.\n# Regenerate: go test ./internal/npb -run TestWorldSizeOneGolden -update\n", got)
}
