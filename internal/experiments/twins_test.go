package experiments

import (
	"context"
	"testing"

	"pasp/internal/core"
	"pasp/internal/stats"
	"pasp/internal/units"
)

// The paper argues by holding closed forms against measurement. Each test
// here evaluates one closed form of internal/core at a quick-suite
// campaign's measured parameters and checks the agreement, or the
// disagreement, that the paper states.

// measured returns the campaign's time or speedup at one cell.
func measured(t *testing.T, get func(int, float64) (float64, error), n int, mhz float64) float64 {
	t.Helper()
	v, err := get(n, mhz)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// Eqs. 2–3 against Table 1: the generalized Amdahl product of the two
// independently measured enhancements, S(N, f0) and S(1, f), is Table 1's
// predictor, and on FT it over-predicts every measured S(N, f) with N ≥ 2
// and f > f0 — the paper's motivating failure.
func TestEq3TwinTable1(t *testing.T) {
	camp, err := Quick().MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := camp.Meas
	f0, err := m.BaseMHz()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range m.Ns() {
		for _, mhz := range m.Freqs() {
			sn := measured(t, m.Speedup, n, f0)
			sf := measured(t, m.Speedup, 1, mhz)
			eq3, err := core.GeneralizedAmdahl([]core.Enhancement{{FE: 1, SE: sn}, {FE: 1, SE: sf}})
			if err != nil {
				t.Fatal(err)
			}
			table1, err := core.ProductSpeedup(m, n, mhz)
			if err != nil {
				t.Fatal(err)
			}
			if stats.RelError(eq3, table1) > 1e-15 {
				t.Errorf("Eq. 3 at (N=%d, %g MHz) = %g, Table 1's ProductSpeedup = %g", n, mhz, eq3, table1)
			}
			if s := measured(t, m.Speedup, n, mhz); n >= 2 && mhz > f0 && eq3 <= s {
				t.Errorf("Eq. 3 at (N=%d, %g MHz) = %g does not over-predict the measured %g", n, mhz, eq3, s)
			}
		}
	}
}

// Eqs. 11 and 13 against Table 3: FT's fully parallel ON/OFF split, solved
// from the sequential times at f0 and at the top gear, plus SP's derived
// overhead T_PO(N) (Eq. 17) as the OFF-chip overhead, reproduces every
// measured FT time and speedup within half of Table 1's max error — the bar
// TestTables1And3Shapes sets for SP.
func TestEq13TwinTable3(t *testing.T) {
	s := Quick()
	camp, err := s.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := camp.Meas
	sp, err := camp.SP()
	if err != nil {
		t.Fatal(err)
	}
	table1, err := s.Table1From(camp)
	if err != nil {
		t.Fatal(err)
	}
	freqs := m.Freqs()
	f0, top := freqs[0], freqs[len(freqs)-1]
	// T_1(f0) = ParOn + ParOff and T_1(top) = ParOn·f0/top + ParOff.
	t1Base := measured(t, m.Time, 1, f0)
	t1Top := measured(t, m.Time, 1, top)
	parOn := (t1Base - t1Top) / (1 - f0/top)
	tpo := map[int]float64{}
	for _, n := range m.Ns() {
		if tpo[n], err = sp.Overhead(n); err != nil {
			t.Fatal(err)
		}
	}
	terms := core.FTTerms(parOn, t1Base-parOn, func(n int) float64 { return tpo[n] })

	bound := table1.Max() / 2
	for _, n := range m.Ns() {
		for _, mhz := range freqs {
			r := units.MHz(mhz).Per(units.MHz(f0))
			pred, err := terms.Time(n, r)
			if err != nil {
				t.Fatal(err)
			}
			if e := stats.RelError(pred, measured(t, m.Time, n, mhz)); e > bound {
				t.Errorf("Eq. 13 time at (N=%d, %g MHz) off by %s, above half of Table 1's max (%s)",
					n, mhz, stats.Percent(e), stats.Percent(bound))
			}
			speedup, err := terms.Speedup(n, r)
			if err != nil {
				t.Fatal(err)
			}
			if e := stats.RelError(speedup, measured(t, m.Speedup, n, mhz)); e > bound {
				t.Errorf("Eq. 11 speedup at (N=%d, %g MHz) off by %s, above half of Table 1's max (%s)",
					n, mhz, stats.Percent(e), stats.Percent(bound))
			}
		}
	}
}

// Eq. 12 against Figure 1 and ScaledEP: EP is fully parallel ON-chip work
// with no overhead, so its measured speedup is the plain product N·f/f0 —
// within 2% on the fixed-size surface and 1% on the scaled one.
func TestEq12TwinEP(t *testing.T) {
	s := Quick()
	fig, err := s.Figure1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := s.ScaledEP(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		g   *ValueGrid
		tol float64
	}{{fig.Speedup, 0.02}, {scaled.Scaled, 0.01}} {
		f0 := c.g.MHz[0]
		for i, n := range c.g.Ns {
			for j, mhz := range c.g.MHz {
				want, err := core.EPSpeedup(n, units.MHz(mhz).Per(units.MHz(f0)))
				if err != nil {
					t.Fatal(err)
				}
				if got := c.g.V[i][j]; stats.RelError(got, want) > c.tol {
					t.Errorf("%s at (N=%d, %g MHz) = %g, Eq. 12 gives %g (beyond %s)",
						c.g.Title, n, mhz, got, want, stats.Percent(c.tol))
				}
			}
		}
	}
}

// Karp–Flatt against Eq. 17: the experimentally determined serial fraction
// of the measured base-frequency speedup is SP's derived overhead in other
// units, e = N·T_PO(N) / ((N−1)·T_1(f0)), on FT and on EP alike.
func TestKarpFlattTwinEq17(t *testing.T) {
	s := Quick()
	for _, k := range []struct {
		name    string
		measure func(context.Context) (*Campaign, error)
	}{{"FT", s.MeasureFT}, {"EP", s.MeasureEP}} {
		camp, err := k.measure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		m := camp.Meas
		sp, err := camp.SP()
		if err != nil {
			t.Fatal(err)
		}
		f0, err := m.BaseMHz()
		if err != nil {
			t.Fatal(err)
		}
		t1 := measured(t, m.Time, 1, f0)
		for _, n := range m.Ns() {
			if n < 2 {
				continue
			}
			kf, err := core.KarpFlatt(measured(t, m.Speedup, n, f0), n)
			if err != nil {
				t.Fatal(err)
			}
			tpo, err := sp.Overhead(n)
			if err != nil {
				t.Fatal(err)
			}
			if want := float64(n) * tpo / (float64(n-1) * t1); stats.RelError(kf, want) > 1e-9 {
				t.Errorf("%s N=%d: Karp–Flatt serial fraction %g, Eq. 17 overhead gives %g",
					k.name, n, kf, want)
			}
		}
	}
}
