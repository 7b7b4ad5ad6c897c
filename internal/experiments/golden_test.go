package experiments

import (
	"context"
	"testing"

	"pasp/internal/stats"
)

// TestPaperGolden pins the headline numbers of the full-scale reproduction
// (the EXPERIMENTS.md values). The simulation is deterministic, so any
// drift means a model or substrate change — intentional changes must update
// EXPERIMENTS.md and README.md alongside this test.
func TestPaperGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale campaigns skipped in -short mode")
	}
	s := Paper()

	// EP: Figure 1 headline cells.
	epFig, err := s.Figure1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got, want, tol float64) {
		t.Helper()
		if !stats.AlmostEqual(got, want, tol) {
			t.Errorf("%s = %.4g, want %.4g (±%g)", name, got, want, tol)
		}
	}
	at := func(g *ValueGrid, n int, f float64) float64 {
		t.Helper()
		v, err := g.At(n, f)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	check("EP speedup (16,600)", at(epFig.Speedup, 16, 600), 15.98, 0.01)
	check("EP speedup (1,1400)", at(epFig.Speedup, 1, 1400), 2.33, 0.01)
	check("EP speedup (16,1400)", at(epFig.Speedup, 16, 1400), 37.29, 0.01)

	// FT: Figure 2 + Tables 1 and 3 headline values.
	ftCamp, err := s.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ftFig, err := s.FigureFrom("FT", ftCamp)
	if err != nil {
		t.Fatal(err)
	}
	check("FT time (1,600)", at(ftFig.Time, 1, 600), 34.32, 0.01)
	check("FT speedup (2,600)", at(ftFig.Speedup, 2, 600), 0.86, 0.02)
	check("FT speedup (16,600)", at(ftFig.Speedup, 16, 600), 2.79, 0.01)
	check("FT speedup (1,1400)", at(ftFig.Speedup, 1, 1400), 1.59, 0.01)

	t1, err := s.Table1From(ftCamp)
	if err != nil {
		t.Fatal(err)
	}
	check("Table 1 max error", t1.Max(), 0.445, 0.02)
	t3, err := s.Table3From(ftCamp)
	if err != nil {
		t.Fatal(err)
	}
	check("Table 3 max error", t3.Max(), 0.046, 0.05)

	// LU: Table 5 ON-chip share and Table 7 bands.
	t5, err := s.Table5()
	if err != nil {
		t.Fatal(err)
	}
	check("LU ON-chip share", t5.Work.OnChip()/t5.Work.Total(), 0.988, 0.002)

	luCamp, err := s.MeasureLU(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t7, err := s.Table7From(luCamp)
	if err != nil {
		t.Fatal(err)
	}
	check("Table 7 FP max error", t7.FP.Max(), 0.092, 0.10)
	check("Table 7 SP max error", t7.SP.Max(), 0.047, 0.10)

	// EDP: the abstract's claim band.
	edp, err := s.EDPFrom("FT", ftCamp)
	if err != nil {
		t.Fatal(err)
	}
	if edp.EDP.Max() > 0.12 {
		t.Errorf("EDP max error %s above the documented ≤10%% band (+margin)", stats.Percent(edp.EDP.Max()))
	}
}
