// Package pasp's benchmark harness regenerates every table and figure of
// the paper's evaluation at full scale and prints the reproduced rows, so
// `go test -bench=. -benchmem` doubles as the reproduction run. Each
// benchmark renders one entry of experiments.Artifacts, reports its metrics
// and prints its text once:
//
//	BenchmarkTable1  — Eq. 3 product-prediction errors on FT   (Table 1)
//	BenchmarkTable2  — operating points                        (Table 2)
//	BenchmarkTable3  — SP parameterization errors on FT        (Table 3)
//	BenchmarkTable5  — LU workload decomposition               (Table 5)
//	BenchmarkTable6  — per-level and per-message timings       (Table 6)
//	BenchmarkTable7  — FP vs SP errors on LU                   (Table 7)
//	BenchmarkFigure1 — EP time and 2-D speedup surfaces        (Fig. 1)
//	BenchmarkFigure2 — FT time and 2-D speedup surfaces        (Fig. 2)
//	BenchmarkEDP     — energy-delay-product prediction errors  (abstract)
//	BenchmarkSweetSpot    — measured vs recommended EDP optimum
//	BenchmarkDVFSSchedule — phase-level DVFS tradeoff          (intro)
//	BenchmarkAblation*    — design-choice ablations            (DESIGN.md §5)
//	BenchmarkFigureCG/MG/IS/SP — extension kernels' surfaces
//	BenchmarkSegmentModel, BenchmarkModelDrivenDVFS, BenchmarkEDPOptimalGears
//	                      — the §7 segment model and the schedules it drives
//	BenchmarkScaledSpeedup, BenchmarkExtrapolation, BenchmarkAdaptiveDVFS,
//	BenchmarkIsoefficiency — related-work and footnote experiments
//
// PASP_BENCH_SUITE=quick swaps in the reduced suite for smoke runs (the CI
// bench-smoke job); probe points are derived from the suite's grid so both
// scales exercise the same code paths. An artifact the grid cannot run
// (BenchmarkExtrapolation needs N = 16) is skipped.
package pasp

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"pasp/internal/experiments"
)

// printOnce guards each benchmark's text so repeated iterations do not
// flood the log.
var printOnce sync.Map

// benchSuite selects the harness scale: unset or "paper" runs the full
// paper reproduction, "quick" the reduced suite.
func benchSuite(b *testing.B) experiments.Suite {
	b.Helper()
	switch v := os.Getenv("PASP_BENCH_SUITE"); v {
	case "", "paper":
		return experiments.Paper()
	case "quick":
		return experiments.Quick()
	default:
		b.Fatalf("unknown PASP_BENCH_SUITE %q (want \"paper\" or \"quick\")", v)
		panic("unreachable")
	}
}

// benchArtifact renders the named artifact once per iteration, reports its
// metrics and prints its text once.
func benchArtifact(b *testing.B, name string) {
	b.Helper()
	s := benchSuite(b)
	for _, a := range experiments.Artifacts() {
		if a.Name != name {
			continue
		}
		if why := a.Skip(s); why != "" {
			b.Skip(why)
		}
		for i := 0; i < b.N; i++ {
			r, err := a.Render(context.Background(), s)
			if err != nil {
				b.Fatal(err)
			}
			for _, m := range r.Metrics {
				b.ReportMetric(m.Value, m.Unit)
			}
			if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
				fmt.Printf("\n%s\n", r.Text)
			}
		}
		return
	}
	b.Fatalf("no artifact %q", name)
}

func BenchmarkTable1(b *testing.B)                 { benchArtifact(b, "table1") }
func BenchmarkTable2(b *testing.B)                 { benchArtifact(b, "table2") }
func BenchmarkTable3(b *testing.B)                 { benchArtifact(b, "table3") }
func BenchmarkTable5(b *testing.B)                 { benchArtifact(b, "table5") }
func BenchmarkTable6(b *testing.B)                 { benchArtifact(b, "table6") }
func BenchmarkTable7(b *testing.B)                 { benchArtifact(b, "table7") }
func BenchmarkFigure1(b *testing.B)                { benchArtifact(b, "figure1") }
func BenchmarkFigure2(b *testing.B)                { benchArtifact(b, "figure2") }
func BenchmarkEDP(b *testing.B)                    { benchArtifact(b, "edp") }
func BenchmarkSweetSpot(b *testing.B)              { benchArtifact(b, "sweet-spot") }
func BenchmarkDVFSSchedule(b *testing.B)           { benchArtifact(b, "dvfs-schedule") }
func BenchmarkAblationContention(b *testing.B)     { benchArtifact(b, "ablation-contention") }
func BenchmarkAblationCommCPU(b *testing.B)        { benchArtifact(b, "ablation-commcpu") }
func BenchmarkAblationBusDrop(b *testing.B)        { benchArtifact(b, "ablation-busdrop") }
func BenchmarkAblationWavefront(b *testing.B)      { benchArtifact(b, "ablation-wavefront") }
func BenchmarkFigureCG(b *testing.B)               { benchArtifact(b, "figure-cg") }
func BenchmarkFigureMG(b *testing.B)               { benchArtifact(b, "figure-mg") }
func BenchmarkFigureIS(b *testing.B)               { benchArtifact(b, "figure-is") }
func BenchmarkSegmentModel(b *testing.B)           { benchArtifact(b, "segment-model") }
func BenchmarkModelDrivenDVFS(b *testing.B)        { benchArtifact(b, "model-driven-dvfs") }
func BenchmarkEDPOptimalGears(b *testing.B)        { benchArtifact(b, "edp-optimal-gears") }
func BenchmarkScaledSpeedup(b *testing.B)          { benchArtifact(b, "scaled-speedup") }
func BenchmarkExtrapolation(b *testing.B)          { benchArtifact(b, "extrapolation") }
func BenchmarkFigureSP(b *testing.B)               { benchArtifact(b, "figure-sp") }
func BenchmarkAblationPipelineChunks(b *testing.B) { benchArtifact(b, "ablation-chunks") }
func BenchmarkAdaptiveDVFS(b *testing.B)           { benchArtifact(b, "adaptive-dvfs") }
func BenchmarkIsoefficiency(b *testing.B)          { benchArtifact(b, "isoefficiency") }
