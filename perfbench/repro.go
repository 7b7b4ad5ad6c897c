package main

import (
	"context"
	"fmt"
	"strings"

	"pasp/internal/cluster"
	"pasp/internal/core"
	"pasp/internal/dvfs"
	"pasp/internal/experiments"
	"pasp/internal/mpi"
	"pasp/internal/npb"
	"pasp/internal/power"
)

// artifact is one table, figure, ablation or extension experiment of the
// paper reproduction. render returns the text the reproduction prints for
// it; the text's digest is the artifact's correctness check.
type artifact struct {
	name   string
	render func(ctx context.Context, s experiments.Suite) (string, error)
}

// Probe points derived from the suite's grid, as the reproduction
// benchmarks derive them.
func maxN(s experiments.Suite) int      { return s.Grid.Ns[len(s.Grid.Ns)-1] }
func baseF(s experiments.Suite) float64 { return s.Grid.MHz[0] }
func topF(s experiments.Suite) float64  { return s.Grid.MHz[len(s.Grid.MHz)-1] }
func capN(s experiments.Suite, n int) int {
	if m := maxN(s); m < n {
		return m
	}
	return n
}

// artifacts lists every experiment the repository's reproduction
// benchmarks (bench_test.go) run, in their source order, minus the
// observability-overhead pair. Each renders exactly what its benchmark
// prints.
var artifacts = []artifact{
	{"table1", func(ctx context.Context, s experiments.Suite) (string, error) {
		g, err := s.Table1(ctx)
		if err != nil {
			return "", err
		}
		return g.String(), nil
	}},
	{"table3", func(ctx context.Context, s experiments.Suite) (string, error) {
		g, err := s.Table3(ctx)
		if err != nil {
			return "", err
		}
		return g.String(), nil
	}},
	{"table5", func(_ context.Context, s experiments.Suite) (string, error) {
		r, err := s.Table5()
		if err != nil {
			return "", err
		}
		return r.String(), nil
	}},
	{"table6", func(_ context.Context, s experiments.Suite) (string, error) {
		r, err := s.Table6()
		if err != nil {
			return "", err
		}
		return r.String(), nil
	}},
	{"table7", func(ctx context.Context, s experiments.Suite) (string, error) {
		r, err := s.Table7(ctx)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	}},
	{"figure1", func(ctx context.Context, s experiments.Suite) (string, error) {
		f, err := s.Figure1(ctx)
		if err != nil {
			return "", err
		}
		return f.String(), nil
	}},
	{"figure2", func(ctx context.Context, s experiments.Suite) (string, error) {
		f, err := s.Figure2(ctx)
		if err != nil {
			return "", err
		}
		return f.String(), nil
	}},
	{"edp", func(ctx context.Context, s experiments.Suite) (string, error) {
		r, err := s.EDPForFT(ctx)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	}},
	{"dvfs-schedule", func(_ context.Context, s experiments.Suite) (string, error) {
		w, err := s.Platform.World(maxN(s), topF(s))
		if err != nil {
			return "", err
		}
		cmp, err := dvfs.Compare(w, dvfs.FTPolicy(s.Platform.Prof), s.RunFT)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("DVFS phase schedule, FT N=%d@%.0fMHz: %s", maxN(s), topF(s), cmp.String()), nil
	}},
	{"ablation-contention", func(_ context.Context, s experiments.Suite) (string, error) {
		ideal := s.Platform
		ideal.Net.FlowConcurrency = 0
		limited, err := ftSpeedupAt(s.Platform, s.FT, maxN(s), baseF(s))
		if err != nil {
			return "", err
		}
		unlimited, err := ftSpeedupAt(ideal, s.FT, maxN(s), baseF(s))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("Ablation, flow contention: FT speedup at (%d, %.0fMHz) = %.2f contended vs %.2f on an ideal switch",
			maxN(s), baseF(s), limited, unlimited), nil
	}},
	{"ablation-commcpu", func(ctx context.Context, s experiments.Suite) (string, error) {
		noCPU := s
		noCPU.Platform.Net.MsgCPUIns = 0
		noCPU.Platform.Net.ByteCPUIns = 0
		with, err := s.Table3(ctx)
		if err != nil {
			return "", err
		}
		without, err := noCPU.Table3(ctx)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("Ablation, comm CPU cost: Table 3 max error %.1f%% with endpoint CPU cost vs %.1f%% without",
			with.Max()*100, without.Max()*100), nil
	}},
	{"ablation-busdrop", func(_ context.Context, s experiments.Suite) (string, error) {
		flat := s.Platform
		flat.Mach.BusDrop = false
		with, err := ftFreqSpeedup(s, s.Platform)
		if err != nil {
			return "", err
		}
		without, err := ftFreqSpeedup(s, flat)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("Ablation, bus-speed drop: FT sequential %.0f→%.0f speedup %.2f with the 140ns low-gear bus vs %.2f without",
			baseF(s), topF(s), with, without), nil
	}},
	{"ablation-wavefront", func(ctx context.Context, s experiments.Suite) (string, error) {
		fitNs := s.LUGrid.Ns[1:]
		f0 := s.LUGrid.MHz[0]
		camp, err := s.MeasureLU(ctx)
		if err != nil {
			return "", err
		}
		sp, err := core.FitSP(camp.Meas)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		b.WriteString("Ablation, wavefront pipelining: LU parallel overhead derived via Eq. 17\n")
		for _, n := range fitNs {
			tpo, err := sp.Overhead(n)
			if err != nil {
				return "", err
			}
			t, err := camp.Meas.Time(n, f0)
			if err != nil {
				return "", err
			}
			share, err := ratio(tpo, t)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "  N=%d: overhead %.2f s = %.1f%% of T(N, %.0fMHz)\n", n, tpo, share*100, f0)
		}
		return b.String(), nil
	}},
	{"figure-cg", kernelFigure("CG (extension)", func(s experiments.Suite) int { return maxN(s) },
		func(s experiments.Suite) func(context.Context) (*experiments.Campaign, error) { return s.MeasureCG })},
	{"figure-mg", kernelFigure("MG (extension)", func(s experiments.Suite) int { return capN(s, 4) },
		func(s experiments.Suite) func(context.Context) (*experiments.Campaign, error) { return s.MeasureMG })},
	{"figure-is", kernelFigure("IS (extension)", func(s experiments.Suite) int { return capN(s, 8) },
		func(s experiments.Suite) func(context.Context) (*experiments.Campaign, error) { return s.MeasureIS })},
	{"segment-model", func(ctx context.Context, s experiments.Suite) (string, error) {
		camp, err := s.MeasureFT(ctx)
		if err != nil {
			return "", err
		}
		r, err := s.SegmentVsSP(camp)
		if err != nil {
			return "", err
		}
		return r.String(), nil
	}},
	{"model-driven-dvfs", func(ctx context.Context, s experiments.Suite) (string, error) {
		camp, err := s.MeasureFT(ctx)
		if err != nil {
			return "", err
		}
		pol, phases, err := s.ModelDrivenDVFS(camp)
		if err != nil {
			return "", err
		}
		w, err := s.Platform.World(maxN(s), topF(s))
		if err != nil {
			return "", err
		}
		cmp, err := dvfs.Compare(w, pol, s.RunFT)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("Model-driven DVFS (auto-classified low-gear phases %v), FT N=%d@%.0fMHz: %v",
			phases, maxN(s), topF(s), cmp), nil
	}},
	{"edp-optimal-gears", func(ctx context.Context, s experiments.Suite) (string, error) {
		camp, err := s.MeasureFT(ctx)
		if err != nil {
			return "", err
		}
		pol, err := s.EDPOptimalGears(camp)
		if err != nil {
			return "", err
		}
		w, err := s.Platform.World(maxN(s), topF(s))
		if err != nil {
			return "", err
		}
		cmp, err := dvfs.CompareGears(w, pol, s.RunFT)
		if err != nil {
			return "", err
		}
		base := power.EDP(cmp.BaselineJoules, cmp.BaselineSec)
		sched := power.EDP(cmp.ScheduledJoules, cmp.ScheduledSec)
		rel, err := ratio(sched, base)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("EDP-optimal gear schedule (%v)\nFT N=%d@%.0fMHz: EDP %.0f → %.0f J·s (%.1f%% better); %v",
			pol, maxN(s), topF(s), base, sched, (1-rel)*100, cmp), nil
	}},
	{"scaled-speedup", func(ctx context.Context, s experiments.Suite) (string, error) {
		mg, err := s.ScaledMG(ctx)
		if err != nil {
			return "", err
		}
		return mg.String(), nil
	}},
	{"extrapolation", func(ctx context.Context, s experiments.Suite) (string, error) {
		lu, err := s.ExtrapolateLU(ctx)
		if err != nil {
			return "", err
		}
		ft, err := s.ExtrapolateFT(ctx)
		if err != nil {
			return "", err
		}
		return lu.String() + "\n" + ft.String(), nil
	}},
	{"figure-sp", kernelFigure("SP (extension)", func(s experiments.Suite) int { return capN(s, 8) },
		func(s experiments.Suite) func(context.Context) (*experiments.Campaign, error) { return s.MeasureSP })},
	{"ablation-chunks", func(_ context.Context, s experiments.Suite) (string, error) {
		run := func(chunks int) (float64, error) {
			sp := s.SP
			sp.Chunks = chunks
			w, err := s.Platform.World(maxN(s), baseF(s))
			if err != nil {
				return 0, err
			}
			_, r, err := sp.Run(w)
			if err != nil {
				return 0, err
			}
			return r.Seconds, nil
		}
		serial, err := run(1)
		if err != nil {
			return "", err
		}
		piped, err := run(8)
		if err != nil {
			return "", err
		}
		gain, err := ratio(serial, piped)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("Ablation, z-solve pipelining: SP at (%d, %.0fMHz) takes %.2f s with a monolithic sweep vs %.2f s with 8-chunk pipelining (%.1f×)",
			maxN(s), baseF(s), serial, piped, gain), nil
	}},
	{"adaptive-dvfs", func(_ context.Context, s experiments.Suite) (string, error) {
		ft := s.FT
		ft.Iters = 24
		w, err := s.Platform.World(maxN(s), topF(s))
		if err != nil {
			return "", err
		}
		a := &dvfs.Adaptive{Prof: s.Platform.Prof, SwitchSec: 50e-6}
		cmp, chosen, err := dvfs.CompareAdaptive(w, a, func(w2 mpi.World) (*mpi.Result, error) {
			_, r, err := ft.Run(w2)
			return r, err
		})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("Adaptive (online, profile-free) DVFS, FT N=%d@%.0fMHz over 24 iterations: %v\nrank-0 converged gears: %v",
			maxN(s), topF(s), cmp, chosen), nil
	}},
	{"isoefficiency", func(_ context.Context, s experiments.Suite) (string, error) {
		var ns []int
		for _, n := range s.Grid.Ns {
			if n >= 2 {
				ns = append(ns, n)
			}
		}
		res, err := s.IsoefficiencyCG(ns)
		if err != nil {
			return "", err
		}
		return res.String(), nil
	}},
}

// kernelFigure renders an extension kernel's two-panel figure from its
// measured campaign.
func kernelFigure(name string, probeN func(experiments.Suite) int,
	measure func(experiments.Suite) func(context.Context) (*experiments.Campaign, error)) func(context.Context, experiments.Suite) (string, error) {
	return func(ctx context.Context, s experiments.Suite) (string, error) {
		camp, err := measure(s)(ctx)
		if err != nil {
			return "", err
		}
		fig, err := s.FigureFrom(name, camp)
		if err != nil {
			return "", err
		}
		if _, err := fig.Speedup.At(probeN(s), baseF(s)); err != nil {
			return "", err
		}
		return fig.String(), nil
	}
}

// ftSpeedupAt measures FT's speedup at (n, f MHz) on a platform variant.
func ftSpeedupAt(p cluster.Platform, ft npb.FT, n int, f float64) (float64, error) {
	r1, err := ftRun(p, ft, 1, f)
	if err != nil {
		return 0, err
	}
	rn, err := ftRun(p, ft, n, f)
	if err != nil {
		return 0, err
	}
	return ratio(r1.Seconds, rn.Seconds)
}

// ftFreqSpeedup measures FT's sequential base→top frequency speedup.
func ftFreqSpeedup(s experiments.Suite, p cluster.Platform) (float64, error) {
	slow, err := ftRun(p, s.FT, 1, baseF(s))
	if err != nil {
		return 0, err
	}
	fast, err := ftRun(p, s.FT, 1, topF(s))
	if err != nil {
		return 0, err
	}
	return ratio(slow.Seconds, fast.Seconds)
}

// ratio is a / b for a derived figure; a non-positive b means a run
// reported an impossible time or energy.
func ratio(a, b float64) (float64, error) {
	if b <= 0 {
		return 0, fmt.Errorf("derived figure: non-positive denominator %g", b)
	}
	return a / b, nil
}

func ftRun(p cluster.Platform, ft npb.FT, n int, f float64) (*mpi.Result, error) {
	w, err := p.World(n, f)
	if err != nil {
		return nil, err
	}
	_, r, err := ft.Run(w)
	return r, err
}

type reproState struct {
	s    experiments.Suite
	gold *goldenSet
}

func setupRepro(runConfig) (any, error) {
	gold, err := loadGolden("repro-paper")
	if err != nil {
		return nil, err
	}
	return &reproState{s: experiments.Paper(), gold: gold}, nil
}

// timedRepro runs every artifact once, in order, in this cold process and
// checks each rendering against its recorded digest.
func timedRepro(cfg runConfig, state any, res *childResult) error {
	st := state.(*reproState)
	ctx := context.Background()
	p0 := readProc()
	for _, a := range artifacts {
		var text string
		_, err := cfg.tr.timed(-1, "experiments:"+a.name, func() error {
			var err error
			text, err = a.render(ctx, st.s)
			return err
		})
		if err == nil {
			err = st.gold.checkBytes(a.name, []byte(text))
		}
		res.record("artifacts", err)
	}
	endPhase(res, p0)
	return st.gold.save()
}
