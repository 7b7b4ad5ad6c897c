// Package pasp's benchmark harness regenerates every table and figure of
// the paper's evaluation at full scale and prints the reproduced rows, so
// `go test -bench=. -benchmem` doubles as the reproduction run:
//
//	BenchmarkTable1  — Eq. 3 product-prediction errors on FT   (Table 1)
//	BenchmarkTable3  — SP parameterization errors on FT        (Table 3)
//	BenchmarkTable5  — LU workload decomposition               (Table 5)
//	BenchmarkTable6  — per-level and per-message timings       (Table 6)
//	BenchmarkTable7  — FP vs SP errors on LU                   (Table 7)
//	BenchmarkFigure1 — EP time and 2-D speedup surfaces        (Fig. 1)
//	BenchmarkFigure2 — FT time and 2-D speedup surfaces        (Fig. 2)
//	BenchmarkEDP     — energy-delay-product prediction errors  (abstract)
//	BenchmarkDVFSSchedule — phase-level DVFS tradeoff          (intro)
//	BenchmarkAblation*    — design-choice ablations            (DESIGN.md §5)
//
// PASP_BENCH_SUITE=quick swaps in the reduced suite for smoke runs (the CI
// bench-smoke job); probe points are derived from the suite's grid so both
// scales exercise the same code paths.
package pasp

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"

	"pasp/internal/cluster"
	"pasp/internal/core"
	"pasp/internal/dvfs"
	"pasp/internal/experiments"
	"pasp/internal/mpi"
	"pasp/internal/npb"
	"pasp/internal/power"
)

// printOnce guards each benchmark's table output so repeated iterations do
// not flood the log.
var printOnce sync.Map

func emit(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

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

// Probe points derived from the suite's grid: the largest measured N, the
// base and top gears, and a preferred count capped to the grid.
func maxN(s experiments.Suite) int      { return s.Grid.Ns[len(s.Grid.Ns)-1] }
func baseF(s experiments.Suite) float64 { return s.Grid.MHz[0] }
func topF(s experiments.Suite) float64  { return s.Grid.MHz[len(s.Grid.MHz)-1] }
func capN(s experiments.Suite, n int) int {
	if m := maxN(s); m < n {
		return m
	}
	return n
}

func BenchmarkTable1(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		grid, err := s.Table1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(grid.Max()*100, "maxerr%")
		b.ReportMetric(grid.Mean()*100, "meanerr%")
		emit("table1", grid.String())
	}
}

func BenchmarkTable3(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		grid, err := s.Table3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(grid.Max()*100, "maxerr%")
		b.ReportMetric(grid.Mean()*100, "meanerr%")
		emit("table3", grid.String())
	}
}

func BenchmarkTable5(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Table5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Work.OnChip()/r.Work.Total()*100, "onchip%")
		emit("table5", r.String())
	}
}

func BenchmarkTable6(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Table6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.CPIOn[0], "cpi_on")
		emit("table6", r.String())
	}
}

func BenchmarkTable7(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.Table7(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FP.Max()*100, "fp_maxerr%")
		b.ReportMetric(r.SP.Max()*100, "sp_maxerr%")
		emit("table7", r.String())
	}
}

func BenchmarkFigure1(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		fig, err := s.Figure1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		top, err := fig.Speedup.At(maxN(s), topF(s))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(top, fmt.Sprintf("speedup@%dx%.0f", maxN(s), topF(s)))
		emit("figure1", fig.String())
	}
}

func BenchmarkFigure2(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		fig, err := s.Figure2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		flat, err := fig.Speedup.At(maxN(s), baseF(s))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(flat, fmt.Sprintf("speedup@%dx%.0f", maxN(s), baseF(s)))
		emit("figure2", fig.String())
	}
}

func BenchmarkEDP(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		r, err := s.EDPForFT(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.EDP.Max()*100, "edp_maxerr%")
		b.ReportMetric(r.Time.Max()*100, "time_maxerr%")
		emit("edp", r.String())
	}
}

func BenchmarkDVFSSchedule(b *testing.B) {
	s := benchSuite(b)
	w, err := s.Platform.World(maxN(s), topF(s))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cmp, err := dvfs.Compare(w, dvfs.FTPolicy(s.Platform.Prof), s.RunFT)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.EnergySavings()*100, "energysave%")
		b.ReportMetric(cmp.Slowdown()*100, "slowdown%")
		emit("dvfs", fmt.Sprintf("DVFS phase schedule, FT N=%d@%.0fMHz: %s",
			maxN(s), topF(s), cmp.String()))
	}
}

// ftSpeedupAt measures FT's speedup at (n, f MHz) on a platform variant.
func ftSpeedupAt(b *testing.B, p cluster.Platform, ft npb.FT, n int, f float64) float64 {
	b.Helper()
	run := func(w mpi.World) (*mpi.Result, error) {
		_, r, err := ft.Run(w)
		return r, err
	}
	w1, err := p.World(1, f)
	if err != nil {
		b.Fatal(err)
	}
	r1, err := run(w1)
	if err != nil {
		b.Fatal(err)
	}
	wn, err := p.World(n, f)
	if err != nil {
		b.Fatal(err)
	}
	rn, err := run(wn)
	if err != nil {
		b.Fatal(err)
	}
	return r1.Seconds / rn.Seconds
}

// BenchmarkAblationContention removes the fabric's flow-concurrency limit:
// with an ideal switch the FT transpose stops flattening, demonstrating the
// mechanism behind Figure 2's saturation.
func BenchmarkAblationContention(b *testing.B) {
	s := benchSuite(b)
	ideal := s.Platform
	ideal.Net.FlowConcurrency = 0
	for i := 0; i < b.N; i++ {
		limited := ftSpeedupAt(b, s.Platform, s.FT, maxN(s), baseF(s))
		unlimited := ftSpeedupAt(b, ideal, s.FT, maxN(s), baseF(s))
		b.ReportMetric(limited, "speedup_contended")
		b.ReportMetric(unlimited, "speedup_ideal")
		emit("abl-contention", fmt.Sprintf(
			"Ablation, flow contention: FT speedup at (%d, %.0fMHz) = %.2f contended vs %.2f on an ideal switch",
			maxN(s), baseF(s), limited, unlimited))
	}
}

// BenchmarkAblationCommCPU removes the per-message/per-byte endpoint CPU
// cost: communication becomes frequency-insensitive and the SP model's
// Assumption 2 holds exactly, shrinking the Table 3 errors.
func BenchmarkAblationCommCPU(b *testing.B) {
	s := benchSuite(b)
	noCPU := s
	noCPU.Platform.Net.MsgCPUIns = 0
	noCPU.Platform.Net.ByteCPUIns = 0
	for i := 0; i < b.N; i++ {
		withCPU, err := s.Table3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		without, err := noCPU.Table3(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(withCPU.Max()*100, "maxerr_with%")
		b.ReportMetric(without.Max()*100, "maxerr_without%")
		emit("abl-commcpu", fmt.Sprintf(
			"Ablation, comm CPU cost: Table 3 max error %.1f%% with endpoint CPU cost vs %.1f%% without",
			withCPU.Max()*100, without.Max()*100))
	}
}

// BenchmarkAblationBusDrop removes the low-gear bus-speed reduction: the
// memory row of Table 6 flattens to 110 ns and FT's sequential frequency
// speedup grows.
func BenchmarkAblationBusDrop(b *testing.B) {
	s := benchSuite(b)
	flat := s
	flat.Platform.Mach.BusDrop = false
	freqSpeedup := func(p cluster.Platform) float64 {
		run := func(w mpi.World) (*mpi.Result, error) {
			_, r, err := s.FT.Run(w)
			return r, err
		}
		slow, err := p.World(1, baseF(s))
		if err != nil {
			b.Fatal(err)
		}
		rs, err := run(slow)
		if err != nil {
			b.Fatal(err)
		}
		fast, err := p.World(1, topF(s))
		if err != nil {
			b.Fatal(err)
		}
		rf, err := run(fast)
		if err != nil {
			b.Fatal(err)
		}
		return rs.Seconds / rf.Seconds
	}
	for i := 0; i < b.N; i++ {
		with := freqSpeedup(s.Platform)
		without := freqSpeedup(flat.Platform)
		b.ReportMetric(with, "fspeedup_busdrop")
		b.ReportMetric(without, "fspeedup_flat")
		emit("abl-busdrop", fmt.Sprintf(
			"Ablation, bus-speed drop: FT sequential %.0f→%.0f speedup %.2f with the 140ns low-gear bus vs %.2f without",
			baseF(s), topF(s), with, without))
	}
}

// BenchmarkAblationWavefront quantifies LU's pipeline-fill and
// fine-grained-message cost: the Eq. 17-derived parallel overhead as a
// share of the measured runtime at the base gear, for each processor count.
// This is the quantity the SP model folds into T(wPO) and the FP model
// misses (Table 7's error growth with N).
func BenchmarkAblationWavefront(b *testing.B) {
	s := benchSuite(b)
	fitNs := s.LUGrid.Ns[1:] // overhead exists at N ≥ 2; N=1 anchors the fit
	last := fitNs[len(fitNs)-1]
	f0 := s.LUGrid.MHz[0]
	for i := 0; i < b.N; i++ {
		camp, err := s.MeasureLU(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		sp, err := core.FitSP(camp.Meas)
		if err != nil {
			b.Fatal(err)
		}
		var lines string
		for _, n := range fitNs {
			tpo, err := sp.Overhead(n)
			if err != nil {
				b.Fatal(err)
			}
			t, err := camp.Meas.Time(n, f0)
			if err != nil {
				b.Fatal(err)
			}
			share := tpo / t
			lines += fmt.Sprintf("  N=%d: overhead %.2f s = %.1f%% of T(N, %.0fMHz)\n", n, tpo, share*100, f0)
			if n == last {
				b.ReportMetric(share*100, fmt.Sprintf("overhead@%d%%", last))
			}
		}
		emit("abl-wavefront",
			"Ablation, wavefront pipelining: LU parallel overhead derived via Eq. 17\n"+lines)
	}
}

// kernelFigure measures a campaign and prints its two-panel figure.
func kernelFigure(b *testing.B, key, name string, s experiments.Suite,
	measure func(context.Context) (*experiments.Campaign, error), probeN int, probeMHz float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		camp, err := measure(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		fig, err := s.FigureFrom(name, camp)
		if err != nil {
			b.Fatal(err)
		}
		v, err := fig.Speedup.At(probeN, probeMHz)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(v, fmt.Sprintf("speedup@%dx%.0f", probeN, probeMHz))
		emit(key, fig.String())
	}
}

// BenchmarkFigureCG extends the evaluation to the NAS CG kernel: strongly
// memory-bound, allreduce-chained — frequency scaling buys little.
func BenchmarkFigureCG(b *testing.B) {
	s := benchSuite(b)
	kernelFigure(b, "figure-cg", "CG (extension)", s, s.MeasureCG, maxN(s), baseF(s))
}

// BenchmarkFigureMG extends the evaluation to the NAS MG kernel:
// hierarchical communication with coarse-grid agglomeration; it peaks at an
// interior processor count on Fast Ethernet.
func BenchmarkFigureMG(b *testing.B) {
	s := benchSuite(b)
	kernelFigure(b, "figure-mg", "MG (extension)", s, s.MeasureMG, capN(s, 4), baseF(s))
}

// BenchmarkFigureIS extends the evaluation to the NAS IS kernel: integer
// bucket sort with skewed all-to-all exchanges.
func BenchmarkFigureIS(b *testing.B) {
	s := benchSuite(b)
	kernelFigure(b, "figure-is", "IS (extension)", s, s.MeasureIS, capN(s, 8), baseF(s))
}

// BenchmarkSegmentModel runs the §7 future-work experiment: the
// segment-granularity model fitted from two frequency columns versus
// whole-program SP at interior frequencies, plus the per-phase frequency
// sensitivities.
func BenchmarkSegmentModel(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		camp, err := s.MeasureFT(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		r, err := s.SegmentVsSP(camp)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Seg.Max()*100, "seg_maxerr%")
		b.ReportMetric(r.SP.Max()*100, "sp_maxerr%")
		emit("segment", r.String())
	}
}

// BenchmarkModelDrivenDVFS closes the §7 loop: the segment model's phase
// classification drives the DVFS schedule with no hand-written phase list.
func BenchmarkModelDrivenDVFS(b *testing.B) {
	s := benchSuite(b)
	camp, err := s.MeasureFT(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	pol, phases, err := s.ModelDrivenDVFS(camp)
	if err != nil {
		b.Fatal(err)
	}
	w, err := s.Platform.World(maxN(s), topF(s))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cmp, err := dvfs.Compare(w, pol, s.RunFT)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.EnergySavings()*100, "energysave%")
		b.ReportMetric(cmp.Slowdown()*100, "slowdown%")
		emit("model-dvfs", fmt.Sprintf(
			"Model-driven DVFS (auto-classified low-gear phases %v), FT N=%d@%.0fMHz: %v",
			phases, maxN(s), topF(s), cmp))
	}
}

// BenchmarkEDPOptimalGears builds the multi-gear schedule from the fitted
// segment model — each phase at its predicted-EDP-optimal operating point —
// and scores it against the all-top baseline.
func BenchmarkEDPOptimalGears(b *testing.B) {
	s := benchSuite(b)
	camp, err := s.MeasureFT(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	pol, err := s.EDPOptimalGears(camp)
	if err != nil {
		b.Fatal(err)
	}
	w, err := s.Platform.World(maxN(s), topF(s))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		cmp, err := dvfs.CompareGears(w, pol, s.RunFT)
		if err != nil {
			b.Fatal(err)
		}
		base := power.EDP(cmp.BaselineJoules, cmp.BaselineSec)
		sched := power.EDP(cmp.ScheduledJoules, cmp.ScheduledSec)
		b.ReportMetric((1-sched/base)*100, "edp_improve%")
		emit("edp-gears", fmt.Sprintf(
			"EDP-optimal gear schedule (%v)\nFT N=%d@%.0fMHz: EDP %.0f → %.0f J·s (%.1f%% better); %v",
			pol, maxN(s), topF(s), base, sched, (1-sched/base)*100, cmp))
	}
}

// BenchmarkScaledSpeedup runs the fixed-time (Gustafson) scaling experiment
// from the related work: EP's scaled surface reaches N·f/f0; MG — ghost
// faces ∝ volume^(2/3) — recovers the scalability its fixed-size surface
// loses on Fast Ethernet (the Sun–Ni memory-bounded argument).
func BenchmarkScaledSpeedup(b *testing.B) {
	s := benchSuite(b)
	for i := 0; i < b.N; i++ {
		mg, err := s.ScaledMG(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		sc, err := mg.Scaled.At(maxN(s), baseF(s))
		if err != nil {
			b.Fatal(err)
		}
		fx, err := mg.Fixed.At(maxN(s), baseF(s))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sc, fmt.Sprintf("mg_scaled@%dx%.0f", maxN(s), baseF(s)))
		b.ReportMetric(fx, fmt.Sprintf("mg_fixed@%dx%.0f", maxN(s), baseF(s)))
		emit("scaled", mg.String())
	}
}

// BenchmarkExtrapolation runs the footnote-3 experiment at paper scale:
// fit the overhead-growth model on N ≤ 8 and predict the 16-node cluster
// blind. LU's smooth wavefront overhead extrapolates; FT's transpose
// crosses the fabric's contention knee between 8 and 16 nodes and defeats
// any model fitted below it — quantifying why the authors wanted the bigger
// machine before concluding.
func BenchmarkExtrapolation(b *testing.B) {
	s := benchSuite(b)
	if maxN(s) < 16 {
		b.Skipf("extrapolation validates against a held-out N=16 run; grid tops out at %d", maxN(s))
	}
	for i := 0; i < b.N; i++ {
		lu, err := s.ExtrapolateLU(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		ft, err := s.ExtrapolateFT(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(lu.MaxErr()*100, "lu_maxerr%")
		b.ReportMetric(ft.MaxErr()*100, "ft_maxerr%")
		emit("extrapolate", lu.String()+"\n"+ft.String())
	}
}

// BenchmarkFigureSP extends the evaluation to the ADI application class:
// local x/y line solves plus a chunk-pipelined distributed Thomas solve
// along z.
func BenchmarkFigureSP(b *testing.B) {
	s := benchSuite(b)
	kernelFigure(b, "figure-sp", "SP (extension)", s, s.MeasureSP, capN(s, 8), baseF(s))
}

// BenchmarkAblationPipelineChunks quantifies the z-solve pipelining choice:
// the same ADI step with a monolithic (1-chunk) forward/backward sweep
// versus the default chunked pipeline.
func BenchmarkAblationPipelineChunks(b *testing.B) {
	s := benchSuite(b)
	run := func(chunks int) float64 {
		sp := s.SP
		sp.Chunks = chunks
		w, err := s.Platform.World(maxN(s), baseF(s))
		if err != nil {
			b.Fatal(err)
		}
		_, r, err := sp.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		return r.Seconds
	}
	for i := 0; i < b.N; i++ {
		serial := run(1)
		piped := run(8)
		b.ReportMetric(serial, "sec_monolithic")
		b.ReportMetric(piped, "sec_pipelined")
		emit("abl-chunks", fmt.Sprintf(
			"Ablation, z-solve pipelining: SP at (%d, %.0fMHz) takes %.2f s with a monolithic sweep vs %.2f s with 8-chunk pipelining (%.1f×)",
			maxN(s), baseF(s), serial, piped, serial/piped))
	}
}

// BenchmarkAdaptiveDVFS runs the profile-free online tuner on FT and
// reports its converged tradeoff — the runtime-governor counterpart to the
// offline model-driven schedules.
func BenchmarkAdaptiveDVFS(b *testing.B) {
	s := benchSuite(b)
	ft := s.FT
	ft.Iters = 24 // room to explore 5 gears × 2 visits per phase
	w, err := s.Platform.World(maxN(s), topF(s))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		a := &dvfs.Adaptive{Prof: s.Platform.Prof, SwitchSec: 50e-6}
		cmp, chosen, err := dvfs.CompareAdaptive(w, a, func(w2 mpi.World) (*mpi.Result, error) {
			_, r, err := ft.Run(w2)
			return r, err
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.EnergySavings()*100, "energysave%")
		b.ReportMetric(cmp.Slowdown()*100, "slowdown%")
		emit("adaptive", fmt.Sprintf(
			"Adaptive (online, profile-free) DVFS, FT N=%d@%.0fMHz over 24 iterations: %v\nrank-0 converged gears: %v",
			maxN(s), topF(s), cmp, chosen))
	}
}

// BenchmarkIsoefficiency runs the Grama-style scalability study (related
// work [18]) on CG: the workload multiplier that holds the 2-processor
// efficiency at each larger count.
func BenchmarkIsoefficiency(b *testing.B) {
	s := benchSuite(b)
	var ns []int
	for _, n := range s.Grid.Ns {
		if n >= 2 {
			ns = append(ns, n)
		}
	}
	for i := 0; i < b.N; i++ {
		res, err := s.IsoefficiencyCG(ns)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Multiplier[len(res.Multiplier)-1], fmt.Sprintf("mult@%d", ns[len(ns)-1]))
		emit("isoeff", res.String())
	}
}
