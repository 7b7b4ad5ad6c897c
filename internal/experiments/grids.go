package experiments

import (
	"fmt"
	"strings"

	"pasp/internal/core"
	"pasp/internal/stats"
	"pasp/internal/table"
)

// ValueGrid is a matrix of values over (N, MHz), the common shape of the
// paper's figures and tables.
type ValueGrid struct {
	// Title describes what the values are.
	Title string
	// Ns and MHz are the axes.
	Ns  []int
	MHz []float64
	// V is indexed [ni][fi].
	V [][]float64
	// Format renders one value (default "%.2f").
	Format string
}

// newValueGrid allocates a grid over the axes.
func newValueGrid(title string, ns []int, mhz []float64, format string) *ValueGrid {
	v := make([][]float64, len(ns))
	for i := range v {
		v[i] = make([]float64, len(mhz))
	}
	if format == "" {
		format = "%.2f"
	}
	return &ValueGrid{Title: title, Ns: ns, MHz: mhz, V: v, Format: format}
}

// At returns the value at (n, mhz).
func (g *ValueGrid) At(n int, mhz float64) (float64, error) {
	for i, nn := range g.Ns {
		if nn != n {
			continue
		}
		for j, ff := range g.MHz {
			//palint:ignore floateq -- grid frequencies are copied verbatim from Grid.MHz; lookup by exact key is intended
			if ff == mhz {
				return g.V[i][j], nil
			}
		}
	}
	return 0, fmt.Errorf("experiments: grid %q has no cell N=%d f=%g", g.Title, n, mhz)
}

// Max returns the largest value in the grid.
func (g *ValueGrid) Max() float64 {
	var all []float64
	for _, row := range g.V {
		all = append(all, row...)
	}
	return stats.Max(all)
}

// Mean returns the mean of all grid values.
func (g *ValueGrid) Mean() float64 {
	var all []float64
	for _, row := range g.V {
		all = append(all, row...)
	}
	return stats.Mean(all)
}

// String renders the grid in the paper's layout: one row per N, one column
// per frequency.
func (g *ValueGrid) String() string {
	header := make([]string, 0, len(g.MHz)+1)
	header = append(header, "N")
	for _, f := range g.MHz {
		header = append(header, fmt.Sprintf("%g", f))
	}
	t := table.New(g.Title+"  (columns: MHz)", header...)
	for i, n := range g.Ns {
		t.AddFloats(fmt.Sprintf("%d", n), g.Format, g.V[i]...)
	}
	return t.String()
}

// CSV renders the grid as comma-separated values with an N header column.
func (g *ValueGrid) CSV() string {
	var b strings.Builder
	b.WriteString("N")
	for _, f := range g.MHz {
		fmt.Fprintf(&b, ",%g", f)
	}
	b.WriteByte('\n')
	for i, n := range g.Ns {
		fmt.Fprintf(&b, "%d", n)
		for _, v := range g.V[i] {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ErrorGrid is a ValueGrid of relative errors (fractions), rendered as
// percentages like the paper's Tables 1, 3 and 7.
type ErrorGrid struct {
	ValueGrid
}

// newErrorGrid allocates an error grid.
func newErrorGrid(title string, ns []int, mhz []float64) *ErrorGrid {
	return &ErrorGrid{ValueGrid: *newValueGrid(title, ns, mhz, "%.4f")}
}

// String renders errors as percentages.
func (e *ErrorGrid) String() string {
	header := make([]string, 0, len(e.MHz)+1)
	header = append(header, "N")
	for _, f := range e.MHz {
		header = append(header, fmt.Sprintf("%g", f))
	}
	t := table.New(e.Title+"  (relative error; columns: MHz)", header...)
	for i, n := range e.Ns {
		t.AddPercents(fmt.Sprintf("%d", n), e.V[i]...)
	}
	t.AddRow("")
	t.AddRow(fmt.Sprintf("mean %s, max %s", stats.Percent(e.Mean()), stats.Percent(e.Max())))
	return t.String()
}

// errorGridFrom fills a grid by comparing a predictor against measured
// values over the campaign; predict and measured both map a configuration
// to a value, and each cell stores |pred−meas|/|meas|.
func errorGridFrom(title string, ns []int, mhz []float64,
	predict, measured func(n int, f float64) (float64, error)) (*ErrorGrid, error) {
	e := newErrorGrid(title, ns, mhz)
	for i, n := range ns {
		for j, f := range mhz {
			p, err := predict(n, f)
			if err != nil {
				return nil, err
			}
			m, err := measured(n, f)
			if err != nil {
				return nil, err
			}
			e.V[i][j] = stats.RelError(p, m)
		}
	}
	return e, nil
}

// timeAndSpeedupGrids extracts the two Figure-style grids from a campaign,
// over the processor counts and frequencies it measured.
func timeAndSpeedupGrids(name string, camp *Campaign) (tg, sg *ValueGrid, err error) {
	ns, mhz := camp.Meas.Ns(), camp.Meas.Freqs()
	tg = newValueGrid(fmt.Sprintf("%s execution time (s)", name), ns, mhz, "%.2f")
	sg = newValueGrid(fmt.Sprintf("%s power-aware speedup", name), ns, mhz, "%.2f")
	for i, n := range ns {
		for j, f := range mhz {
			t, err := camp.Meas.Time(n, f)
			if err != nil {
				return nil, nil, err
			}
			s, err := camp.Meas.Speedup(n, f)
			if err != nil {
				return nil, nil, err
			}
			tg.V[i][j] = t
			sg.V[i][j] = s
		}
	}
	return tg, sg, nil
}

// speedupOf adapts a Measurements campaign to the predictor signature.
func speedupOf(m *core.Measurements) func(int, float64) (float64, error) {
	return func(n int, f float64) (float64, error) { return m.Speedup(n, f) }
}

// timeOf adapts a Measurements campaign to the predictor signature.
func timeOf(m *core.Measurements) func(int, float64) (float64, error) {
	return func(n int, f float64) (float64, error) { return m.Time(n, f) }
}
