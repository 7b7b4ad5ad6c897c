package experiments

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// digestFloats is the SHA-256 of every value of a [row][col] matrix at
// %.17g, one value per line: any drift in any bit changes it.
func digestFloats(v [][]float64) string {
	var b strings.Builder
	for _, row := range v {
		for _, x := range row {
			fmt.Fprintf(&b, "%.17g\n", x)
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// gridLoopDigests renders the outputs of the grid experiments as lines of
// the form "<case> <component> <value>": the scaled and fixed-size surfaces
// of ScaledEP and ScaledMG, and a full-mix robustness sweep of every kernel.
func gridLoopDigests(t *testing.T) []string {
	t.Helper()
	s := Quick()
	ctx := context.Background()
	var got []string
	for _, sc := range []struct {
		name string
		run  func(context.Context) (*ScaledResult, error)
	}{{"scaled/ep", s.ScaledEP}, {"scaled/mg", s.ScaledMG}} {
		r, err := sc.run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		got = append(got,
			fmt.Sprintf("%s scaled %s", sc.name, digestFloats(r.Scaled.V)),
			fmt.Sprintf("%s fixed %s", sc.name, digestFloats(r.Fixed.V)))
	}
	for _, name := range s.KernelNames() {
		r, err := s.Robustness(ctx, RobustnessSpec{
			Kernel:     name,
			Ns:         []int{2, 4},
			Magnitudes: []float64{0, 0.5, 1},
			Faults:     DefaultRobustnessFaults(11),
		})
		if err != nil {
			t.Fatalf("robustness %s: %v", name, err)
		}
		c := "robustness/" + name
		got = append(got,
			fmt.Sprintf("%s meas_sec %s", c, digestFloats(r.MeasSec)),
			fmt.Sprintf("%s sp_err %s", c, digestFloats(r.SPErr)),
			fmt.Sprintf("%s fp_err %s", c, digestFloats(r.FPErr)),
			fmt.Sprintf("%s fault_sec %s", c, digestFloats(r.FaultSec)),
			fmt.Sprintf("%s retries %v", c, r.Retries))
	}
	return got
}

// TestGridLoopsGolden pins the scaled-speedup surfaces and the robustness
// campaign bit for bit, at one sweep worker and at many, against
// testdata/grid_loops.golden. The file was generated while both
// experiments still ran their cells in hand-written serial loops, so it is
// an oracle independent of how cluster.Sweep schedules, records and
// replays them. The file is rewritten under -update.
func TestGridLoopsGolden(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			checkGoldenLines(t, "grid_loops.golden", gridLoopDigests(t), procs == 1,
				"# Grid-experiment digests: <case> <component> <value>.\n"+
					"# Regenerate: go test ./internal/experiments -run TestGridLoopsGolden -update\n")
		})
	}
}

// checkGoldenLines compares got, line by line, with testdata/<name>, whose
// lines starting with # are comments. Under -update, when write is set, it
// first rewrites the file as header plus got.
func checkGoldenLines(t *testing.T, name string, got []string, write bool, header string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update && write {
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
		t.Fatalf("%d lines, %s has %d", len(got), name, len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("%s drifted from %s:\n got  %s\n want %s", strings.Fields(w)[0], name, got[i], w)
		}
	}
}
