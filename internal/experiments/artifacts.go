package experiments

import (
	"context"
	"fmt"
	"strings"

	"pasp/internal/cluster"
	"pasp/internal/dvfs"
	"pasp/internal/power"
)

// Artifact is one table, figure, ablation or extension experiment of the
// reproduction. The reproduction benchmarks (bench_test.go, one per
// artifact) and cmd/pareport render every artifact from Artifacts.
type Artifact struct {
	// Name keys the artifact, as the repository benchmark's repro-paper
	// golden does: "table1", "figure-cg".
	Name string
	// Title heads the artifact's section in a report.
	Title string
	// HeldOutN is the processor count of a run the artifact keeps out of
	// its fits and validates against, or 0. The suite's grid must reach it.
	HeldOutN int
	// Render runs what the artifact needs on s, reusing stored campaigns,
	// and renders it.
	Render func(ctx context.Context, s Suite) (Rendering, error)
}

// Rendering is an artifact's printed text and the custom metrics its
// benchmark reports.
type Rendering struct {
	Text    string
	Metrics []Metric
}

// Metric is one benchmark metric, such as 29.8 "maxerr%".
type Metric struct {
	Unit  string
	Value float64
}

// Skip returns why a cannot run on s, or "" when it can.
func (a Artifact) Skip(s Suite) string {
	if top := maxN(s); top < a.HeldOutN {
		return fmt.Sprintf("%s validates against a held-out N=%d run; grid tops out at %d", a.Name, a.HeldOutN, top)
	}
	return ""
}

// Artifacts lists every artifact of the reproduction in report order: the
// paper's tables and figures, its EDP claim, the DVFS motivation, then the
// ablations and extensions. Probe points derive from the suite's grid, so
// the paper and quick suites run the same code paths. A render that fails
// returns its error; the Rendering beside it is then meaningless.
func Artifacts() []Artifact {
	return []Artifact{
		{Name: "table1", Title: "Table 1 — generalized Amdahl (Eq. 3) on FT", Render: func(ctx context.Context, s Suite) (Rendering, error) {
			g, err := s.Table1(ctx)
			return show(g, err, gridErrs)
		}},
		{Name: "table2", Title: "Table 2 — operating points", Render: func(_ context.Context, s Suite) (Rendering, error) {
			return Rendering{Text: s.Table2()}, nil
		}},
		{Name: "table3", Title: "Table 3 — SP parameterization on FT", Render: func(ctx context.Context, s Suite) (Rendering, error) {
			g, err := s.Table3(ctx)
			return show(g, err, gridErrs)
		}},
		{Name: "table5", Title: "Table 5 — LU workload decomposition", Render: func(_ context.Context, s Suite) (Rendering, error) {
			r, err := s.Table5()
			if err != nil {
				return Rendering{}, err
			}
			share, err := ratio(r.Work.OnChip(), r.Work.Total())
			return Rendering{r.String(), []Metric{{"onchip%", share * 100}}}, err
		}},
		{Name: "table6", Title: "Table 6 — measured model parameters", Render: func(_ context.Context, s Suite) (Rendering, error) {
			r, err := s.Table6()
			return show(r, err, func(r *Table6Result) []Metric { return []Metric{{"cpi_on", r.CPIOn[0]}} })
		}},
		{Name: "table7", Title: "Table 7 — FP vs SP on LU", Render: func(ctx context.Context, s Suite) (Rendering, error) {
			r, err := s.Table7(ctx)
			return show(r, err, func(r *Table7Result) []Metric {
				return []Metric{{"fp_maxerr%", r.FP.Max() * 100}, {"sp_maxerr%", r.SP.Max() * 100}}
			})
		}},
		{Name: "figure1", Title: "Figure 1 — EP", Render: func(ctx context.Context, s Suite) (Rendering, error) {
			fig, err := s.Figure1(ctx)
			return figureAt(fig, err, maxN(s), topF(s))
		}},
		{Name: "figure2", Title: "Figure 2 — FT", Render: func(ctx context.Context, s Suite) (Rendering, error) {
			fig, err := s.Figure2(ctx)
			return figureAt(fig, err, maxN(s), baseF(s))
		}},
		{Name: "edp", Title: "Energy-delay prediction (abstract claim)", Render: func(ctx context.Context, s Suite) (Rendering, error) {
			r, err := s.EDPForFT(ctx)
			return show(r, err, func(r *EDPResult) []Metric {
				return []Metric{{"edp_maxerr%", r.EDP.Max() * 100}, {"time_maxerr%", r.Time.Max() * 100}}
			})
		}},
		// The regret is the measured EDP at the model's recommendation over
		// the measured optimum's.
		{Name: "sweet-spot", Title: "EDP sweet spot on FT", Render: onFT(func(s Suite, camp *Campaign) (Rendering, error) {
			best, rec, err := s.SweetSpotFrom(camp)
			if err != nil {
				return Rendering{}, err
			}
			got, err := camp.Meas.EDP(rec.N, rec.MHz)
			if err != nil {
				return Rendering{}, err
			}
			regret, err := ratio(got, best.EDP())
			return Rendering{fmt.Sprintf("EDP sweet spot, FT: measured optimum %v (%.3f s, %.1f J, EDP %.2f J·s); model recommends %v (predicted %.3f s, %.1f J, EDP %.2f J·s)",
				best.Config, best.Seconds, best.Joules, best.EDP(), rec.Config, rec.Seconds, rec.Joules, rec.EDP()),
				[]Metric{{"edp_regret%", (regret - 1) * 100}}}, err
		})},
		{Name: "dvfs-schedule", Title: "DVFS phase scheduling (intro motivation)", Render: func(_ context.Context, s Suite) (Rendering, error) {
			cmp, err := compareFT(s, dvfs.FTPolicy(s.Platform.Prof))
			return Rendering{fmt.Sprintf("DVFS phase schedule, FT N=%d@%.0fMHz: %v", maxN(s), topF(s), cmp), savings(cmp)}, err
		}},
		// FT's speedup with and without the fabric's flow-concurrency
		// limit: the mechanism behind Figure 2's saturation.
		{Name: "ablation-contention", Title: "Ablation — flow contention", Render: func(ctx context.Context, s Suite) (Rendering, error) {
			ideal := s.Platform
			ideal.Net.FlowConcurrency = 0
			limited, unlimited, err := ftSpeedups(ctx, s, ideal, maxN(s), baseF(s))
			return Rendering{fmt.Sprintf("Ablation, flow contention: FT speedup at (%d, %.0fMHz) = %.2f contended vs %.2f on an ideal switch",
				maxN(s), baseF(s), limited, unlimited),
				[]Metric{{"speedup_contended", limited}, {"speedup_ideal", unlimited}}}, err
		}},
		// Table 3 without the endpoint CPU cost of messages: communication
		// turns frequency-insensitive, as SP's Assumption 2 takes it.
		{Name: "ablation-commcpu", Title: "Ablation — communication CPU cost", Render: func(ctx context.Context, s Suite) (Rendering, error) {
			noCPU := s
			noCPU.Platform.Net.MsgCPUIns = 0
			noCPU.Platform.Net.ByteCPUIns = 0
			with, err := s.Table3(ctx)
			if err != nil {
				return Rendering{}, err
			}
			without, err := noCPU.Table3(ctx)
			if err != nil {
				return Rendering{}, err
			}
			return Rendering{fmt.Sprintf("Ablation, comm CPU cost: Table 3 max error %.1f%% with endpoint CPU cost vs %.1f%% without",
				with.Max()*100, without.Max()*100),
				[]Metric{{"maxerr_with%", with.Max() * 100}, {"maxerr_without%", without.Max() * 100}}}, nil
		}},
		// FT's sequential frequency speedup without the low-gear bus-speed
		// drop, which flattens Table 6's memory row to 110 ns.
		{Name: "ablation-busdrop", Title: "Ablation — low-gear bus-speed drop", Render: func(ctx context.Context, s Suite) (Rendering, error) {
			flat := s.Platform
			flat.Mach.BusDrop = false
			with, without, err := ftSpeedups(ctx, s, flat, 1, topF(s))
			return Rendering{fmt.Sprintf("Ablation, bus-speed drop: FT sequential %.0f→%.0f speedup %.2f with the 140ns low-gear bus vs %.2f without",
				baseF(s), topF(s), with, without),
				[]Metric{{"fspeedup_busdrop", with}, {"fspeedup_flat", without}}}, err
		}},
		// LU's Eq. 17 parallel overhead as a share of the measured time at
		// the base gear: what SP folds into T(wPO) and FP misses.
		{Name: "ablation-wavefront", Title: "Ablation — LU wavefront pipelining", Render: func(ctx context.Context, s Suite) (Rendering, error) {
			camp, err := s.MeasureLU(ctx)
			if err != nil {
				return Rendering{}, err
			}
			sp, err := camp.SP()
			if err != nil {
				return Rendering{}, err
			}
			f0 := s.LUGrid.MHz[0]
			var b strings.Builder
			var share float64
			b.WriteString("Ablation, wavefront pipelining: LU parallel overhead derived via Eq. 17\n")
			for _, n := range s.LUGrid.Ns[1:] { // overhead exists at N ≥ 2; N=1 anchors the fit
				tpo, err := sp.Overhead(n)
				if err != nil {
					return Rendering{}, err
				}
				t, err := camp.Meas.Time(n, f0)
				if err != nil {
					return Rendering{}, err
				}
				if share, err = ratio(tpo, t); err != nil {
					return Rendering{}, err
				}
				fmt.Fprintf(&b, "  N=%d: overhead %.2f s = %.1f%% of T(N, %.0fMHz)\n", n, tpo, share*100, f0)
			}
			last := s.LUGrid.Ns[len(s.LUGrid.Ns)-1]
			return Rendering{b.String(), []Metric{{fmt.Sprintf("overhead@%d%%", last), share * 100}}}, nil
		}},
		{Name: "figure-cg", Title: "Extension — CG, memory-bound and allreduce-chained", Render: kernelFigure("cg", maxN)},
		{Name: "figure-mg", Title: "Extension — MG, hierarchical communication", Render: kernelFigure("mg", func(s Suite) int { return min(4, maxN(s)) })},
		{Name: "figure-is", Title: "Extension — IS, skewed all-to-all exchanges", Render: kernelFigure("is", func(s Suite) int { return min(8, maxN(s)) })},
		{Name: "segment-model", Title: "Segment-granularity model (paper §7 future work)", Render: onFT(func(s Suite, camp *Campaign) (Rendering, error) {
			r, err := s.SegmentVsSP(camp)
			return show(r, err, func(r *SegmentResult) []Metric {
				return []Metric{{"seg_maxerr%", r.Seg.Max() * 100}, {"sp_maxerr%", r.SP.Max() * 100}}
			})
		})},
		{Name: "model-driven-dvfs", Title: "Model-driven DVFS (paper §7, end to end)", Render: onFT(func(s Suite, camp *Campaign) (Rendering, error) {
			pol, phases, err := s.ModelDrivenDVFS(camp)
			if err != nil {
				return Rendering{}, err
			}
			cmp, err := compareFT(s, pol)
			return Rendering{fmt.Sprintf("Model-driven DVFS (auto-classified low-gear phases %v), FT N=%d@%.0fMHz: %v",
				phases, maxN(s), topF(s), cmp), savings(cmp)}, err
		})},
		{Name: "edp-optimal-gears", Title: "EDP-optimal gear schedule", Render: onFT(func(s Suite, camp *Campaign) (Rendering, error) {
			pol, err := s.EDPOptimalGears(camp)
			if err != nil {
				return Rendering{}, err
			}
			cmp, err := compareFT(s, pol)
			if err != nil {
				return Rendering{}, err
			}
			base := power.EDP(cmp.BaselineJoules, cmp.BaselineSec)
			sched := power.EDP(cmp.ScheduledJoules, cmp.ScheduledSec)
			rel, err := ratio(sched, base)
			return Rendering{fmt.Sprintf("EDP-optimal gear schedule (%v)\nFT N=%d@%.0fMHz: EDP %.0f → %.0f J·s (%.1f%% better); %v",
				pol, maxN(s), topF(s), base, sched, (1-rel)*100, cmp),
				[]Metric{{"edp_improve%", (1 - rel) * 100}}}, err
		})},
		{Name: "scaled-speedup", Title: "Fixed-time (Gustafson) scaled speedup", Render: func(ctx context.Context, s Suite) (Rendering, error) {
			mg, err := s.ScaledMG(ctx)
			if err != nil {
				return Rendering{}, err
			}
			n, f := maxN(s), baseF(s)
			sc, err := mg.Scaled.At(n, f)
			if err != nil {
				return Rendering{}, err
			}
			fx, err := mg.Fixed.At(n, f)
			return Rendering{mg.String(), []Metric{
				{fmt.Sprintf("mg_scaled@%dx%.0f", n, f), sc}, {fmt.Sprintf("mg_fixed@%dx%.0f", n, f), fx}}}, err
		}},
		// Footnote 3: fit the overhead growth on N ≤ 8 and predict the
		// 16-node cluster blind.
		{Name: "extrapolation", Title: "Extrapolation to N = 16 (footnote 3)", HeldOutN: 16, Render: func(ctx context.Context, s Suite) (Rendering, error) {
			lu, err := s.ExtrapolateLU(ctx)
			if err != nil {
				return Rendering{}, err
			}
			ft, err := s.ExtrapolateFT(ctx)
			if err != nil {
				return Rendering{}, err
			}
			return Rendering{lu.String() + "\n" + ft.String(),
				[]Metric{{"lu_maxerr%", lu.MaxErr() * 100}, {"ft_maxerr%", ft.MaxErr() * 100}}}, nil
		}},
		{Name: "figure-sp", Title: "Extension — SP, chunk-pipelined ADI solve", Render: kernelFigure("sp", func(s Suite) int { return min(8, maxN(s)) })},
		// The same ADI step with a monolithic z-solve sweep and with the
		// default 8-chunk pipeline.
		{Name: "ablation-chunks", Title: "Ablation — z-solve pipelining", Render: func(_ context.Context, s Suite) (Rendering, error) {
			var secs [2]float64
			for i, chunks := range []int{1, 8} {
				sp := s.SP
				sp.Chunks = chunks
				var err error
				if secs[i], err = seconds(s.Platform, runOf(sp.Run), maxN(s), baseF(s)); err != nil {
					return Rendering{}, err
				}
			}
			gain, err := ratio(secs[0], secs[1])
			return Rendering{fmt.Sprintf("Ablation, z-solve pipelining: SP at (%d, %.0fMHz) takes %.2f s with a monolithic sweep vs %.2f s with 8-chunk pipelining (%.1f×)",
				maxN(s), baseF(s), secs[0], secs[1], gain),
				[]Metric{{"sec_monolithic", secs[0]}, {"sec_pipelined", secs[1]}}}, err
		}},
		{Name: "adaptive-dvfs", Title: "Adaptive online DVFS", Render: func(_ context.Context, s Suite) (Rendering, error) {
			ft := s.FT
			ft.Iters = 24 // room to explore 5 gears × 2 visits per phase
			w, err := s.Platform.World(maxN(s), topF(s))
			if err != nil {
				return Rendering{}, err
			}
			a := &dvfs.Adaptive{Prof: s.Platform.Prof, SwitchSec: 50e-6}
			cmp, chosen, err := dvfs.CompareAdaptive(w, a, runOf(ft.Run))
			return Rendering{fmt.Sprintf("Adaptive (online, profile-free) DVFS, FT N=%d@%.0fMHz over 24 iterations: %v\nrank-0 converged gears: %v",
				maxN(s), topF(s), cmp, chosen), savings(cmp)}, err
		}},
		{Name: "isoefficiency", Title: "Isoefficiency on CG", Render: func(_ context.Context, s Suite) (Rendering, error) {
			ns := s.Grid.Ns[1:] // the grid starts at N = 1; the efficiency held is N = 2's
			r, err := s.IsoefficiencyCG(ns)
			return show(r, err, func(r *IsoefficiencyResult) []Metric {
				return []Metric{{fmt.Sprintf("mult@%d", ns[len(ns)-1]), r.Multiplier[len(r.Multiplier)-1]}}
			})
		}},
	}
}

// Probe points derived from the suite's grid: the largest measured N and
// the base and top gears.
func maxN(s Suite) int      { return s.Grid.Ns[len(s.Grid.Ns)-1] }
func baseF(s Suite) float64 { return s.Grid.MHz[0] }
func topF(s Suite) float64  { return s.Grid.MHz[len(s.Grid.MHz)-1] }

// show renders v with the metrics m reads off it, unless err is set.
func show[T fmt.Stringer](v T, err error, m func(T) []Metric) (Rendering, error) {
	if err != nil {
		return Rendering{}, err
	}
	return Rendering{v.String(), m(v)}, nil
}

// gridErrs is an error grid's max and mean error.
func gridErrs(g *ErrorGrid) []Metric {
	return []Metric{{"maxerr%", g.Max() * 100}, {"meanerr%", g.Mean() * 100}}
}

// figureAt renders a two-panel figure with its speedup at (n, f MHz).
func figureAt(fig *Figure, err error, n int, f float64) (Rendering, error) {
	if err != nil {
		return Rendering{}, err
	}
	v, err := fig.Speedup.At(n, f)
	return Rendering{fig.String(), []Metric{{fmt.Sprintf("speedup@%dx%.0f", n, f), v}}}, err
}

// kernelFigure renders an extension kernel's figure from its campaign,
// with its speedup at probeN(s) processors and the base gear.
func kernelFigure(kernel string, probeN func(Suite) int) func(context.Context, Suite) (Rendering, error) {
	return func(ctx context.Context, s Suite) (Rendering, error) {
		camp, err := s.MeasureKernel(ctx, kernel)
		if err != nil {
			return Rendering{}, err
		}
		fig, err := s.FigureFrom(strings.ToUpper(kernel)+" (extension)", camp)
		return figureAt(fig, err, probeN(s), baseF(s))
	}
}

// onFT renders from the suite's measured FT campaign.
func onFT(render func(Suite, *Campaign) (Rendering, error)) func(context.Context, Suite) (Rendering, error) {
	return func(ctx context.Context, s Suite) (Rendering, error) {
		camp, err := s.MeasureFT(ctx)
		if err != nil {
			return Rendering{}, err
		}
		return render(s, camp)
	}
}

// compareFT runs FT at the grid's largest N and top gear, with and
// without the gear policy p.
func compareFT(s Suite, p dvfs.GearPolicy) (dvfs.Comparison, error) {
	w, err := s.Platform.World(maxN(s), topF(s))
	if err != nil {
		return dvfs.Comparison{}, err
	}
	return dvfs.Compare(w, p, s.RunFT)
}

// savings is a DVFS comparison's energy saving and slowdown.
func savings(c dvfs.Comparison) []Metric {
	return []Metric{{"energysave%", c.EnergySavings() * 100}, {"slowdown%", c.Slowdown() * 100}}
}

// ftSpeedups is FT's speedup from (1, base gear) to (n, f MHz) on the
// suite's platform, read from its stored FT campaign, and on variant,
// whose two cells one cluster.Sweep measures: the sweep records and
// replays them when they share a rank count.
func ftSpeedups(ctx context.Context, s Suite, variant cluster.Platform, n int, f float64) (stock, onVariant float64, err error) {
	camp, err := s.MeasureFT(ctx)
	if err != nil {
		return 0, 0, err
	}
	t1, err := camp.Meas.Time(1, baseF(s))
	if err != nil {
		return 0, 0, err
	}
	tn, err := camp.Meas.Time(n, f)
	if err != nil {
		return 0, 0, err
	}
	if stock, err = ratio(t1, tn); err != nil {
		return 0, 0, err
	}
	g := cluster.Grid{Ns: []int{1}, MHz: []float64{baseF(s)}}
	if n > 1 {
		g.Ns = append(g.Ns, n)
	}
	if f > baseF(s) {
		g.MHz = append(g.MHz, f)
	}
	cells, err := cluster.Sweep(ctx, variant, g, s.RunFT)
	if err != nil {
		return 0, 0, err
	}
	// The first cell is (1, base gear) and the last (n, f).
	onVariant, err = ratio(cells[0].Res.Seconds, cells[len(cells)-1].Res.Seconds)
	return stock, onVariant, err
}

// seconds is the run time of run on p at (n, f MHz).
func seconds(p cluster.Platform, run cluster.RunFunc, n int, f float64) (float64, error) {
	w, err := p.World(n, f)
	if err != nil {
		return 0, err
	}
	r, err := run(w)
	if err != nil {
		return 0, err
	}
	return r.Seconds, nil
}

// ratio is a / b for a derived figure; a non-positive b means a run
// reported an impossible time or energy.
func ratio(a, b float64) (float64, error) {
	if b <= 0 {
		return 0, fmt.Errorf("experiments: non-positive denominator %g in a derived figure", b)
	}
	return a / b, nil
}
