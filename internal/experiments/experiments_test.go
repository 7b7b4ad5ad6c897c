package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"pasp/internal/cluster"
	"pasp/internal/core"
	"pasp/internal/dvfs"
	"pasp/internal/faults"
	"pasp/internal/machine"
	"pasp/internal/obs"
	"pasp/internal/power"
	"pasp/internal/stats"
	"pasp/internal/units"
)

func TestValueGridAccessors(t *testing.T) {
	g := newValueGrid("t", []int{1, 2}, []float64{600, 1400}, "")
	g.V[0][0], g.V[0][1] = 1, 2
	g.V[1][0], g.V[1][1] = 3, 4
	if v, err := g.At(2, 600); err != nil || v != 3 {
		t.Errorf("At = %g, %v", v, err)
	}
	if _, err := g.At(3, 600); err == nil {
		t.Error("missing N accepted")
	}
	if _, err := g.At(1, 700); err == nil {
		t.Error("missing f accepted")
	}
	if g.Max() != 4 || g.Mean() != 2.5 {
		t.Errorf("Max/Mean = %g/%g", g.Max(), g.Mean())
	}
	csv := g.CSV()
	if !strings.Contains(csv, "N,600,1400") || !strings.Contains(csv, "2,3,4") {
		t.Errorf("CSV malformed:\n%s", csv)
	}
	if !strings.Contains(g.String(), "1400") {
		t.Errorf("String missing header:\n%s", g.String())
	}
}

func TestErrorGridRendersPercent(t *testing.T) {
	e := newErrorGrid("errs", []int{2}, []float64{600})
	e.V[0][0] = 0.123
	if !strings.Contains(e.String(), "12.3%") {
		t.Errorf("percent missing:\n%s", e.String())
	}
}

func TestQuickSuiteValid(t *testing.T) {
	s := Quick()
	if err := s.Platform.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Grid.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.FT.Validate(4); err != nil {
		t.Fatal(err)
	}
	if err := s.LU.Validate(4); err != nil {
		t.Fatal(err)
	}
	if err := s.EP.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperSuiteValid(t *testing.T) {
	s := Paper()
	if err := s.FT.Validate(16); err != nil {
		t.Fatal(err)
	}
	if err := s.LU.Validate(8); err != nil {
		t.Fatal(err)
	}
}

// E1 and E4 (shape): the Eq. 3 product prediction has large errors on FT,
// the SP parameterization has much smaller ones, and the base-frequency
// column of both is exact by construction.
func TestTables1And3Shapes(t *testing.T) {
	s := Quick()
	camp, err := s.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t1, err := s.Table1From(camp)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := s.Table3From(camp)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*ErrorGrid{t1, t3} {
		for i, n := range g.Ns {
			if g.V[i][0] > 1e-9 {
				t.Errorf("%s: base column error %g at N=%d, want 0", g.Title, g.V[i][0], n)
			}
		}
	}
	if t1.Max() < 0.10 {
		t.Errorf("Table 1 max error %s too small; product rule should fail badly", stats.Percent(t1.Max()))
	}
	if t3.Max() > t1.Max()/2 {
		t.Errorf("Table 3 max %s not well below Table 1 max %s", stats.Percent(t3.Max()), stats.Percent(t1.Max()))
	}
	if t3.Mean() > 0.10 {
		t.Errorf("Table 3 mean error %s above 10%%", stats.Percent(t3.Mean()))
	}
}

// E5: the LU counters decompose into Table 5's level shares.
func TestTable5Shares(t *testing.T) {
	s := Quick()
	r, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	fr := r.Work.Fractions()
	want := [machine.NumLevels]float64{machine.Reg: 0.442, machine.L1: 0.533, machine.L2: 0.014, machine.Mem: 0.012}
	for l := machine.Reg; l < machine.NumLevels; l++ {
		if fr[l] < want[l]*0.85 || fr[l] > want[l]*1.15 {
			t.Errorf("%v share %.4f, want ≈ %.3f", l, fr[l], want[l])
		}
	}
	out := r.String()
	for _, needle := range []string{"PAPI_TOT_INS", "PAPI_L2_TCM", "ON-chip", "Main Memory"} {
		if !strings.Contains(out, needle) {
			t.Errorf("Table 5 rendering missing %q:\n%s", needle, out)
		}
	}
}

// E6: the measured parameter table has the Table 6 shapes.
func TestTable6Shapes(t *testing.T) {
	s := Quick()
	r, err := s.Table6()
	if err != nil {
		t.Fatal(err)
	}
	// Blended ON-chip CPI is frequency-invariant and near 2.19 cycles.
	for i, cpi := range r.CPIOn {
		if !stats.AlmostEqual(cpi, 2.19, 0.08) {
			t.Errorf("CPIon at %g MHz = %.3f, want ≈ 2.19", r.MHz[i], cpi)
		}
	}
	// Memory row: 140 ns at the 600 MHz gear, 110 ns at 1400.
	if !stats.AlmostEqual(float64(r.LevelNanos[0][machine.Mem]), 140, 0.05) {
		t.Errorf("mem ns at base = %g, want ≈ 140", float64(r.LevelNanos[0][machine.Mem]))
	}
	last := len(r.MHz) - 1
	if !stats.AlmostEqual(float64(r.LevelNanos[last][machine.Mem]), 110, 0.05) {
		t.Errorf("mem ns at top = %g, want ≈ 110", float64(r.LevelNanos[last][machine.Mem]))
	}
	// Communication: 310 doubles cost more than 155, and more at 600 MHz
	// than at the top gear.
	for i := range r.MHz {
		if r.CommLarge[i] <= r.CommSmall[i] {
			t.Errorf("at %g MHz large message %g µs not above small %g µs", r.MHz[i], r.CommLarge[i], r.CommSmall[i])
		}
	}
	if r.CommLarge[0] <= r.CommLarge[last] {
		t.Errorf("large-message time at 600 MHz (%g µs) not above top gear (%g µs)", r.CommLarge[0], r.CommLarge[last])
	}
	if !strings.Contains(r.String(), "310 doubles") {
		t.Errorf("rendering missing comm row:\n%s", r.String())
	}
}

// E7: SP is exact at the fitted slices; FP errors are nonzero at N=1
// (memory-overlap, the paper's footnote 1) and bounded overall.
func TestTable7Shapes(t *testing.T) {
	s := Quick()
	r, err := s.Table7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	spN1, err := r.SP.At(1, 600)
	if err != nil {
		t.Fatal(err)
	}
	if spN1 > 1e-9 {
		t.Errorf("SP error at fitted cell (1,600) = %g, want 0", spN1)
	}
	fpN1, err := r.FP.At(1, 600)
	if err != nil {
		t.Fatal(err)
	}
	if fpN1 <= 0 {
		t.Error("FP error at N=1 is zero; the additive-composition error is lost")
	}
	if r.FP.Max() > 0.30 || r.SP.Max() > 0.30 {
		t.Errorf("Table 7 errors too large: FP max %s, SP max %s", stats.Percent(r.FP.Max()), stats.Percent(r.SP.Max()))
	}
}

// E10: the EP observations of §4.2.
func TestFigure1EPObservations(t *testing.T) {
	s := Quick()
	fig, err := s.Figure1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mustAt := func(g *ValueGrid, n int, f float64) float64 {
		t.Helper()
		v, err := g.At(n, f)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// (1, 2) time falls with N and with f.
	if !(mustAt(fig.Time, 4, 600) < mustAt(fig.Time, 2, 600) && mustAt(fig.Time, 2, 600) < mustAt(fig.Time, 1, 600)) {
		t.Error("EP time not decreasing with N")
	}
	if !(mustAt(fig.Time, 1, 1400) < mustAt(fig.Time, 1, 600)) {
		t.Error("EP time not decreasing with f")
	}
	eq12 := func(n int, mhz float64) float64 {
		t.Helper()
		s, err := core.EPSpeedup(n, units.MHz(mhz).Per(units.MHz(600)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// (3) speedup at base frequency ≈ N (Eq. 12 at f = f0).
	if s4, want := mustAt(fig.Speedup, 4, 600), eq12(4, 600); !stats.AlmostEqual(s4, want, 0.02) {
		t.Errorf("EP speedup at (4,600) = %g, want ≈ %g (Eq. 12)", s4, want)
	}
	// (4) frequency speedup ≈ f/f0 (Eq. 12 at N = 1).
	if sf, want := mustAt(fig.Speedup, 1, 1400), eq12(1, 1400); !stats.AlmostEqual(sf, want, 0.02) {
		t.Errorf("EP speedup at (1,1400) = %g, want ≈ %g (Eq. 12)", sf, want)
	}
	// (5) combined ≈ product (within the paper's 2.3%).
	prod := mustAt(fig.Speedup, 4, 600) * mustAt(fig.Speedup, 1, 1400)
	if comb := mustAt(fig.Speedup, 4, 1400); !stats.AlmostEqual(comb, prod, 0.025) {
		t.Errorf("EP combined speedup %g vs product %g beyond 2.5%%", comb, prod)
	}
}

// E11: the FT observations of §4.3.
func TestFigure2FTObservations(t *testing.T) {
	s := Quick()
	fig, err := s.Figure2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mustAt := func(g *ValueGrid, n int, f float64) float64 {
		t.Helper()
		v, err := g.At(n, f)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	// (3) the 1→2 slowdown at the base frequency.
	if !(mustAt(fig.Time, 2, 600) > mustAt(fig.Time, 1, 600)) {
		t.Error("FT did not slow down from 1 to 2 processors")
	}
	if sp := mustAt(fig.Speedup, 2, 600); sp >= 1 {
		t.Errorf("FT speedup at (2,600) = %g, want < 1", sp)
	}
	// (4) sub-linear frequency speedup on one processor.
	sf := mustAt(fig.Speedup, 1, 1400)
	if sf <= 1.2 || sf >= 1400.0/600 {
		t.Errorf("FT frequency speedup %g not sub-linear in (1.2, 2.33)", sf)
	}
	// (5) the frequency benefit diminishes as N grows.
	gain1 := mustAt(fig.Speedup, 1, 1400) / mustAt(fig.Speedup, 1, 600)
	gain4 := mustAt(fig.Speedup, 4, 1400) / mustAt(fig.Speedup, 4, 600)
	if gain4 >= gain1 {
		t.Errorf("frequency gain did not diminish: %g at N=1 vs %g at N=4", gain1, gain4)
	}
}

// E8: the abstract's claim — EDP predicted within single-digit percent.
func TestEDPPredictionAccuracy(t *testing.T) {
	s := Quick()
	r, err := s.EDPForFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Time.Max() > 0.10 {
		t.Errorf("SP time error max %s above 10%%", stats.Percent(r.Time.Max()))
	}
	if r.EDP.Max() > 0.15 {
		t.Errorf("EDP error max %s above 15%%", stats.Percent(r.EDP.Max()))
	}
}

func TestSweetSpotRecommendation(t *testing.T) {
	s := Quick()
	camp, err := s.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	measured, predicted, err := s.SweetSpotFrom(camp)
	if err != nil {
		t.Fatal(err)
	}
	if measured.N < 1 || predicted.N < 1 {
		t.Fatalf("degenerate sweet spots: %+v %+v", measured, predicted)
	}
	// The model's recommendation must be near-optimal when executed: its
	// measured EDP within 20% of the true optimum.
	recEDP, err := camp.Meas.EDP(predicted.N, predicted.MHz)
	if err != nil {
		t.Fatal(err)
	}
	if recEDP > measured.EDP()*1.2 {
		t.Errorf("model recommendation %v has EDP %g, optimum %v has %g",
			predicted.Config, recEDP, measured.Config, measured.EDP())
	}
}

func TestTable2Rendering(t *testing.T) {
	out := Quick().Table2()
	for _, needle := range []string{"1400MHz", "1.484V", "600MHz", "0.956V"} {
		if !strings.Contains(out, needle) {
			t.Errorf("Table 2 missing %q:\n%s", needle, out)
		}
	}
}

func TestCampaignCellLookup(t *testing.T) {
	s := Quick()
	camp, err := s.MeasureEP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Cell(1, 600); err != nil {
		t.Errorf("cell lookup failed: %v", err)
	}
	if _, err := camp.Cell(99, 600); err == nil {
		t.Error("missing cell accepted")
	}
}

// Extension kernels: every campaign must produce a sane speedup surface.
func TestExtensionKernelCampaigns(t *testing.T) {
	s := Quick()
	for _, tc := range []struct {
		name    string
		measure func(context.Context) (*Campaign, error)
	}{
		{"CG", s.MeasureCG},
		{"MG", s.MeasureMG},
		{"IS", s.MeasureIS},
	} {
		camp, err := tc.measure(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		base, err := camp.Meas.Speedup(1, 600)
		if err != nil || base != 1 {
			t.Errorf("%s: base speedup %g, %v", tc.name, base, err)
		}
		s4, err := camp.Meas.Speedup(4, 1400)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if s4 <= 0 || s4 > 4*1400.0/600 {
			t.Errorf("%s: combined speedup %g outside (0, N·f/f0]", tc.name, s4)
		}
	}
}

// SP generalizes across the whole suite: fitting from the standard slices
// must predict the held-out cells of every kernel within a loose band.
func TestSPGeneralizesAcrossKernels(t *testing.T) {
	s := Quick()
	for _, tc := range []struct {
		name    string
		measure func(context.Context) (*Campaign, error)
		maxErr  float64
	}{
		{"EP", s.MeasureEP, 0.01},
		{"FT", s.MeasureFT, 0.10},
		{"CG", s.MeasureCG, 0.10},
		{"MG", s.MeasureMG, 0.15}, // agglomerated coarse levels violate Assumption 1 hardest
		{"IS", s.MeasureIS, 0.15},
	} {
		camp, err := tc.measure(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sp, err := core.FitSP(camp.Meas)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		grid, err := errorGridFrom(tc.name, s.Grid.Ns, s.Grid.MHz, sp.PredictTime, timeOf(camp.Meas))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if grid.Max() > tc.maxErr {
			t.Errorf("%s: SP max time error %s above %s", tc.name,
				stats.Percent(grid.Max()), stats.Percent(tc.maxErr))
		}
	}
}

// The segment-granularity model (paper §7): its two-column fit predicts
// held-out frequencies within a modest band (it cannot see the bus-speed
// drop, unlike SP which measures every frequency), and — its actual payoff
// — it classifies each phase by frequency sensitivity.
func TestSegmentModelOnFT(t *testing.T) {
	s := Quick()
	camp, err := s.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.SegmentVsSP(camp)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seg.Max() > 0.10 {
		t.Errorf("segment model max error %s above 10%%", stats.Percent(r.Seg.Max()))
	}
	// The alltoall phase must show partial frequency sensitivity: above
	// zero (endpoint CPU cost) but well below the compute phases.
	alltoall, ok := r.Sensitivity["ft-alltoall"]
	if !ok {
		t.Fatalf("no alltoall sensitivity: %v", r.Sensitivity)
	}
	fft, ok := r.Sensitivity["ft-fft-x"]
	if !ok {
		t.Fatalf("no fft sensitivity: %v", r.Sensitivity)
	}
	if alltoall <= 0.001 || alltoall >= fft {
		t.Errorf("alltoall sensitivity %.3f should be in (0, %.3f)", alltoall, fft)
	}
}

// §7's vision end to end: the segment model automatically discovers the
// communication-bound phases and its derived DVFS policy saves energy with
// a bounded slowdown, without any hand-written phase list.
func TestModelDrivenDVFS(t *testing.T) {
	s := Quick()
	camp, err := s.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pol, phases, err := s.ModelDrivenDVFS(camp)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Phases["ft-alltoall"] != s.Platform.Prof.BaseState() {
		t.Errorf("alltoall not classified as frequency-insensitive: %v", phases)
	}
	for _, compute := range []string{"ft-fft-x", "ft-fft-y", "ft-fft-z", "ft-evolve"} {
		if _, low := pol.Phases[compute]; low {
			t.Errorf("compute phase %q misclassified for the low gear", compute)
		}
	}
	if pol.Default != s.Platform.Prof.TopState() {
		t.Errorf("default gear %v, want the top gear", pol.Default)
	}
	w, err := s.Platform.World(4, 1400)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := dvfs.Compare(w, pol, s.RunFT)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.EnergySavings() < 0.05 {
		t.Errorf("model-driven policy saves only %.1f%% energy", cmp.EnergySavings()*100)
	}
	if cmp.Slowdown() > 0.10 {
		t.Errorf("model-driven policy slows down %.1f%%", cmp.Slowdown()*100)
	}
}

func TestPhaseTimesCoverAllCells(t *testing.T) {
	s := Quick()
	camp, err := s.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pt := PhaseTimes(camp)
	if len(pt) < 4 {
		t.Fatalf("only %d phases extracted", len(pt))
	}
	cells := len(s.Grid.Ns) * len(s.Grid.MHz)
	for phase, times := range pt {
		if len(times) != cells {
			t.Errorf("phase %q has %d cells, want %d", phase, len(times), cells)
		}
	}
}

// The EDP-optimal multi-gear schedule must pick sensible endpoints (low
// gear for the alltoall, top gear for the FFTs) and beat the all-top
// baseline's EDP when executed.
func TestEDPOptimalGears(t *testing.T) {
	s := Quick()
	camp, err := s.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pol, err := s.EDPOptimalGears(camp)
	if err != nil {
		t.Fatal(err)
	}
	if got := pol.Phases["ft-alltoall"]; got != s.Platform.Prof.BaseState() {
		t.Errorf("alltoall gear %v, want bottom", got)
	}
	if got := pol.Phases["ft-fft-x"]; got != s.Platform.Prof.TopState() {
		t.Errorf("fft-x gear %v, want top", got)
	}
	w, err := s.Platform.World(4, 1400)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := dvfs.Compare(w, pol, s.RunFT)
	if err != nil {
		t.Fatal(err)
	}
	if sched, base := power.EDP(cmp.ScheduledJoules, cmp.ScheduledSec), power.EDP(cmp.BaselineJoules, cmp.BaselineSec); sched >= base {
		t.Errorf("optimized EDP %g not below baseline %g", sched, base)
	}
}

// Fixed-time (Gustafson) scaling: EP reaches the clean N·f/f0 product, and
// MG — whose ghost faces grow sublinearly with the volume — recovers
// scalability its fixed-size surface loses.
func TestScaledSpeedup(t *testing.T) {
	s := Quick()
	ep, err := s.ScaledEP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ep.Scaled.At(4, 1400)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.EPSpeedup(4, units.MHz(1400).Per(units.MHz(600)))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(got, want, 0.02) {
		t.Errorf("EP scaled speedup at (4,1400) = %g, want ≈ %g (Eq. 12)", got, want)
	}

	mg, err := s.ScaledMG(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	maxN := s.Grid.Ns[len(s.Grid.Ns)-1]
	scaled, err := mg.Scaled.At(maxN, 600)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := mg.Fixed.At(maxN, 600)
	if err != nil {
		t.Fatal(err)
	}
	if scaled <= fixed {
		t.Errorf("MG scaled speedup %g not above fixed-size %g", scaled, fixed)
	}

	// T_1 is the grid's own (1, f0) cell, so a grid without N=1 is refused.
	s.Grid.Ns = []int{2, 4}
	if _, err := s.ScaledEP(context.Background()); err == nil || !strings.Contains(err.Error(), "needs N=1") {
		t.Errorf("grid without N=1: %v, want a needs-N=1 error", err)
	}
}

// The footnote-3 experiment: extrapolating the overhead model to an
// unmeasured cluster size works for LU (smooth overhead growth) and is
// expected to degrade for FT (the contention knee) — both directions are
// part of the finding.
func TestExtrapolation(t *testing.T) {
	s := Quick()
	s.Grid = cluster.Grid{Ns: []int{1, 2, 4, 8, 16}, MHz: []float64{600, 1400}}
	s.LUGrid = cluster.Grid{Ns: []int{1, 2, 4, 8}, MHz: []float64{600, 1400}}
	lu, err := s.ExtrapolateLU(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := lu.FitNs; len(got) != 3 || got[2] != 8 {
		t.Errorf("LU fit Ns = %v, want [2 4 8]", got)
	}
	if lu.MaxErr() > 0.25 {
		t.Errorf("LU extrapolation max error %s; smooth overhead should extrapolate", stats.Percent(lu.MaxErr()))
	}
	ft, err := s.ExtrapolateFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// FT's knee makes blind extrapolation markedly worse than LU's.
	if ft.MaxErr() < lu.MaxErr() {
		t.Errorf("FT extrapolation (%s) unexpectedly better than LU (%s); the contention knee is lost",
			stats.Percent(ft.MaxErr()), stats.Percent(lu.MaxErr()))
	}
}

func TestEDPForEPNearExact(t *testing.T) {
	s := Quick()
	camp, err := s.MeasureEP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.EDPFrom("EP", camp)
	if err != nil {
		t.Fatal(err)
	}
	// EP satisfies both SP assumptions almost exactly, so its EDP
	// prediction is near-perfect.
	if r.EDP.Max() > 0.02 {
		t.Errorf("EP EDP max error %s, want ≈ 0", stats.Percent(r.EDP.Max()))
	}
}

func TestSweetSpotFTDirect(t *testing.T) {
	s := Quick()
	camp, err := s.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	measured, predicted, err := s.SweetSpotFrom(camp)
	if err != nil {
		t.Fatal(err)
	}
	if measured.N < 1 || predicted.N < 1 {
		t.Error("degenerate sweet spots")
	}
}

func TestEDPAndTablesDirectEntryPoints(t *testing.T) {
	// The convenience wrappers that run their own campaigns.
	s := Quick()
	if _, err := s.Table1(context.Background()); err != nil {
		t.Errorf("Table1: %v", err)
	}
	if _, err := s.Table3(context.Background()); err != nil {
		t.Errorf("Table3: %v", err)
	}
	if _, err := s.EDPForFT(context.Background()); err != nil {
		t.Errorf("EDPForFT: %v", err)
	}
	if _, err := s.Figure2(context.Background()); err != nil {
		t.Errorf("Figure2: %v", err)
	}
	if _, err := s.ScaledEP(context.Background()); err != nil {
		t.Errorf("ScaledEP: %v", err)
	}
}

// TestKernelLookupAllocs pins the cost of resolving one kernel on the
// paper suite: Kernel builds only the named row, rendering its class, its
// grid and one platform fingerprint, and KernelNames builds no row at all.
// Building the whole seven-row table per lookup costs about 170
// allocations. The Kernel budget is not measured under the race detector:
// its sync.Pool drops a random share of Puts, so fmt's printer cache misses
// and the count drifts past the budget at random.
func TestKernelLookupAllocs(t *testing.T) {
	s := Paper()
	lookup := func() {
		if _, err := s.Kernel("ft"); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 60
	if !raceEnabled {
		if avg := testing.AllocsPerRun(20, lookup); avg > budget {
			t.Errorf("Kernel(\"ft\") allocates %.1f times, budget %d", avg, budget)
		}
	}
	if avg := testing.AllocsPerRun(20, func() { s.KernelNames() }); avg > 1 {
		t.Errorf("KernelNames allocates %.1f times, budget 1", avg)
	}
}

func TestKernelRegistry(t *testing.T) {
	s := Quick()
	names := s.KernelNames()
	if len(names) != 7 {
		t.Fatalf("registry has %d kernels: %v", len(names), names)
	}
	if _, err := s.Kernel("nope"); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := SuiteByName("nope"); err == nil {
		t.Error("unknown suite accepted")
	}
	for _, name := range names {
		res, err := s.RunKernelOnce(name, 2, 600)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Seconds <= 0 || res.Joules <= 0 {
			t.Errorf("%s: degenerate result %g s / %g J", name, res.Seconds, res.Joules)
		}
	}
}

// The paper's remark that the fine-grain technique "applied to FT with
// error rates similar to those in Table 3": FP fitted from FT's counters,
// the lmbench latencies and its profiled alltoall traffic predicts the
// grid within a similar band.
func TestFPAppliedToFT(t *testing.T) {
	s := Quick()
	camp, err := s.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.FitFP(camp, s.Grid)
	if err != nil {
		t.Fatal(err)
	}
	base, err := camp.Meas.BaseMHz()
	if err != nil {
		t.Fatal(err)
	}
	t1, err := camp.Meas.Time(1, base)
	if err != nil {
		t.Fatal(err)
	}
	predict := func(n int, f float64) (float64, error) {
		tp, err := fp.PredictTime(n, f)
		if err != nil {
			return 0, err
		}
		if tp <= 0 {
			return 0, fmt.Errorf("FP predicted non-positive time at N=%d f=%g", n, f)
		}
		return t1 / float64(tp), nil
	}
	grid, err := errorGridFrom("FT FP", s.Grid.Ns, s.Grid.MHz, predict, speedupOf(camp.Meas))
	if err != nil {
		t.Fatal(err)
	}
	// FT's alltoall volume per rank varies with N while the ping-pong
	// prices a fixed message size, so FP's FT errors run higher than LU's —
	// but they must stay far below the Table 1 product-rule failures.
	if grid.Max() > 0.35 {
		t.Errorf("FT FP max error %s; parameterization broke down", stats.Percent(grid.Max()))
	}
}

// Isoefficiency (Grama et al., related work [18]): holding CG's parallel
// efficiency constant requires growing the workload with the processor
// count; the required multiplier is finite because CG's overheads are
// workload-independent.
func TestIsoefficiencyCG(t *testing.T) {
	s := Quick()
	res, err := s.IsoefficiencyCG([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Target <= 0 || res.Target > 1 {
		t.Fatalf("target efficiency %g out of range", res.Target)
	}
	if res.Multiplier[0] != 1 {
		t.Errorf("base multiplier %g, want 1", res.Multiplier[0])
	}
	if res.Multiplier[1] < 1 {
		t.Errorf("multiplier at N=4 is %g; efficiency cannot be held with less work", res.Multiplier[1])
	}
	if res.Multiplier[1] >= maxIsoMult {
		t.Errorf("multiplier hit the cap; target unreachable")
	}
}

// TestCampaignFitsShared pins the fit memo's sharing contract: concurrent
// SP and FP callers on one campaign all get the same models, and those
// models are the ones the unmemoized fitters compute. Run it under -race.
func TestCampaignFitsShared(t *testing.T) {
	s := Quick()
	k, err := s.Kernel("ft")
	if err != nil {
		t.Fatal(err)
	}
	stored, err := k.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A campaign of its own, so no earlier test has filled its memo.
	camp := NewCampaign(stored.Cells)
	const callers = 8
	sps := make([]*core.SP, callers)
	fps := make([]*core.FP, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var spErr, fpErr error
			sps[i], spErr = camp.SP()
			fps[i], fpErr = k.FP(camp)
			errs[i] = errors.Join(spErr, fpErr)
		}(i)
	}
	wg.Wait()
	for i := range callers {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if sps[i] != sps[0] || fps[i] != fps[0] {
			t.Fatalf("caller %d got SP %p / FP %p, caller 0 got %p / %p; the campaign fitted more than once",
				i, sps[i], fps[i], sps[0], fps[0])
		}
	}
	sp, err := core.FitSP(camp.Meas)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := s.FitFP(camp, k.Grid)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp, sps[0]) || !reflect.DeepEqual(fp, fps[0]) {
		t.Error("the memoized fits differ from fresh FitSP and FitFP fits")
	}
}

// TestCampaignFitErrorMemoized pins that a failed fit is memoized like a
// model: a campaign without its N=1 cells can fit neither SP nor FP, and
// every call returns the very error value of the first, where a refit would
// build a new one.
func TestCampaignFitErrorMemoized(t *testing.T) {
	s := Quick()
	k, err := s.Kernel("ft")
	if err != nil {
		t.Fatal(err)
	}
	stored, err := k.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var cells []cluster.Cell
	for _, c := range stored.Cells {
		if c.N != 1 {
			cells = append(cells, c)
		}
	}
	camp := NewCampaign(cells)
	_, spErr := camp.SP()
	_, fpErr := k.FP(camp)
	if spErr == nil || fpErr == nil {
		t.Fatalf("fits without N=1 cells: SP error %v, FP error %v; want both to fail", spErr, fpErr)
	}
	for range 3 {
		if _, err := camp.SP(); err != spErr {
			t.Fatalf("SP returned %v (%p), first call %v (%p); the campaign refitted", err, err, spErr, spErr)
		}
		if _, err := k.FP(camp); err != fpErr {
			t.Fatalf("FP returned %v (%p), first call %v (%p); the campaign refitted", err, err, fpErr, fpErr)
		}
	}
	if _, err := core.FitSP(camp.Meas); err == spErr {
		t.Fatal("FitSP returns one shared error value, so identity cannot tell a refit apart")
	}
}

// TestStoreKeysOnPingReps: the FP fit a campaign memoizes reads the suite's
// PingReps, so two suites that differ only there must not share a campaign.
func TestStoreKeysOnPingReps(t *testing.T) {
	s := Quick()
	variant := s
	variant.PingReps++
	if s.Kernels()["lu"].key == variant.Kernels()["lu"].key {
		t.Error("suites with different PingReps share a campaign-store key")
	}
}

// TestFigureFromDrawsCampaignGrid: a figure is drawn on the grid its
// campaign measured, not on the suite's EP/FT grid, so LU's smaller grid
// needs no override.
func TestFigureFromDrawsCampaignGrid(t *testing.T) {
	s := Quick()
	s.LUGrid = cluster.Grid{Ns: []int{1, 2}, MHz: []float64{600, 1400}}
	camp, err := s.MeasureLU(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fig, err := s.FigureFrom("LU", camp)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*ValueGrid{fig.Time, fig.Speedup} {
		if !slices.Equal(g.Ns, s.LUGrid.Ns) || !slices.Equal(g.MHz, s.LUGrid.MHz) {
			t.Errorf("%s drawn on Ns %v × MHz %v, want LU's grid %v × %v", g.Title, g.Ns, g.MHz, s.LUGrid.Ns, s.LUGrid.MHz)
		}
	}
}

// TestChaosCeilingsKeepRunFinite runs every kernel with every chaos knob at
// its ceiling and every message dropped to its last retry: the worst run the
// ceilings admit still has finite seconds and joules, and its Chrome trace
// validates. Collectives take the jitter, degradation and straggling;
// point-to-point messages also take the 63-retry backoff (LU's run is the
// longest, at about 2.5e27 s). This is why neither paserve's /trace nor
// patrace checks a run's makespan or energy for overflow.
func TestChaosCeilingsKeepRunFinite(t *testing.T) {
	cfg, err := faults.ParseSpec("seed=1,jitter=1e6,drop=1,retries=63,timeout=1000000s," +
		"degradeprob=1,degradefactor=1e6,straggler=1,slowdown=1e6")
	if err != nil {
		t.Fatal(err)
	}
	s := Quick()
	s.Platform.Faults = cfg
	for _, name := range s.KernelNames() {
		res, err := s.RunKernelOnce(name, 2, 600)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(res.Seconds, 0) || math.IsNaN(res.Seconds) || math.IsInf(res.Joules, 0) || math.IsNaN(res.Joules) {
			t.Errorf("%s worst-case chaos run: %g s, %g J; want both finite", name, res.Seconds, res.Joules)
		}
		if _, err := obs.ValidateChromeTrace(obs.ChromeTrace(res.Trace, name)); err != nil {
			t.Errorf("%s worst-case chaos run: %v", name, err)
		}
	}
}
