// The scaling harness: sweeps of the scaling kernels past the paper's 16
// nodes, up to N=1024. `make bench-scale` (PASP_BENCH_SUITE=scale) runs it
// and tees the rows through cmd/pabench into BENCH_2.json, the scaling
// companion to the reproduction artifact BENCH_1.json:
//
//	BenchmarkScale/<kernel>/event/n<NNNN>
//
// Every row reports the simulated seconds and joules at the grid's base and
// top gears alongside the real ns/op, so one artifact answers both "what
// does the model predict at 1024 ranks" and "what does simulating it cost".
//
// Each row sweeps its (single-N, two-gear) grid through cluster.Sweep, so
// the rows exercise the record/replay frequency axis and the campaign
// worker pool exactly as the full reproduction does. Rows the
// kernel's decomposition cannot reach (FT needs Ny and Nz divisible by N,
// so it stops at 256) skip with the Validate reason rather than silently
// shrinking the matrix.
package pasp

import (
	"context"
	"fmt"
	"os"
	"testing"

	"pasp/internal/cluster"
	"pasp/internal/experiments"
)

// scaleSuite gates the scaling harness: it runs only under
// PASP_BENCH_SUITE=scale, keeping the BENCH_1.json row set stable.
func scaleSuite(b *testing.B) experiments.Suite {
	b.Helper()
	if v := os.Getenv("PASP_BENCH_SUITE"); v != "scale" {
		b.Skipf("scaling harness runs under PASP_BENCH_SUITE=scale (have %q)", v)
	}
	return experiments.Scale()
}

// scaleValidate reports whether the suite's class of the named scaling
// kernel is runnable on n ranks.
func scaleValidate(s experiments.Suite, kernel string, n int) error {
	switch kernel {
	case "ft":
		return s.FT.Validate(n)
	case "cg":
		return s.CG.Validate(n)
	}
	return fmt.Errorf("scale harness: unknown kernel %q", kernel)
}

func BenchmarkScale(b *testing.B) {
	s := scaleSuite(b)
	for _, kernel := range []string{"ft", "cg"} {
		k, err := s.Kernel(kernel)
		if err != nil {
			b.Fatal(err)
		}
		for _, n := range s.Grid.Ns {
			// The "event" path segment stays: perfbench/golden/bench2.tsv
			// and the BENCH_2.json rows are keyed by these names.
			b.Run(fmt.Sprintf("%s/event/n%04d", kernel, n), func(b *testing.B) {
				if err := scaleValidate(s, kernel, n); err != nil {
					b.Skipf("decomposition limit: %v", err)
				}
				g := cluster.Grid{Ns: []int{n}, MHz: s.Grid.MHz}
				for i := 0; i < b.N; i++ {
					cells, err := cluster.Sweep(context.Background(), s.Platform, g, k.Run)
					if err != nil {
						b.Fatal(err)
					}
					for _, c := range cells {
						b.ReportMetric(c.Res.Seconds, fmt.Sprintf("simsec@%.0f", c.MHz))
						b.ReportMetric(c.Res.Joules, fmt.Sprintf("simJ@%.0f", c.MHz))
					}
				}
			})
		}
	}
}
