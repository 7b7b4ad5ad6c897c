package experiments

import "context"

// Figure is one of the paper's two-panel figures: the execution-time
// surface (panel a) and the two-dimensional power-aware speedup surface
// (panel b) over the (N, MHz) grid.
type Figure struct {
	// Time is panel (a): execution time in seconds.
	Time *ValueGrid
	// Speedup is panel (b): speedup relative to (1, f0).
	Speedup *ValueGrid
}

// String renders both panels.
func (f *Figure) String() string {
	return f.Time.String() + "\n" + f.Speedup.String()
}

// Figure1 reproduces Fig. 1: EP execution time and two-dimensional speedup.
// Expected shapes (paper §4.2): time falls linearly with both N and f;
// speedup at the base frequency is ≈ N; speedup on 1 processor is ≈ f/f0;
// the combined speedup is ≈ their product.
func (s Suite) Figure1(ctx context.Context) (*Figure, error) {
	camp, err := s.MeasureEP(ctx)
	if err != nil {
		return nil, err
	}
	return s.FigureFrom("Fig 1: EP", camp)
}

// Figure2 reproduces Fig. 2: FT execution time and two-dimensional speedup.
// Expected shapes (paper §4.3): time *increases* from 1 to 2 processors;
// speedup flattens toward 16 processors; the benefit of frequency scaling
// diminishes as N grows.
func (s Suite) Figure2(ctx context.Context) (*Figure, error) {
	camp, err := s.MeasureFT(ctx)
	if err != nil {
		return nil, err
	}
	return s.FigureFrom("Fig 2: FT", camp)
}

// FigureFrom builds the two panels from an existing campaign, on the
// campaign's own grid.
func (s Suite) FigureFrom(name string, camp *Campaign) (*Figure, error) {
	tg, sg, err := timeAndSpeedupGrids(name, camp)
	if err != nil {
		return nil, err
	}
	return &Figure{Time: tg, Speedup: sg}, nil
}
