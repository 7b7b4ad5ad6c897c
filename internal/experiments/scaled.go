package experiments

import (
	"context"
	"fmt"

	"pasp/internal/cluster"
	"pasp/internal/mpi"
)

// ScaledResult holds a scaled-workload (fixed-time, Gustafson-style)
// speedup surface: at every configuration the workload is N times the
// one-processor workload, and the scaled speedup is
//
//	S_scaled(N, f) = N · T_1(w, f0) / T_N(N·w, f)
//
// — the related work's answer (Gustafson [20], Sun–Ni [30]) to Amdahl's
// fixed-size pessimism, evaluated here under DVFS. Codes whose overhead
// grows sublinearly with the workload (MG's surface-to-volume ghost faces)
// scale far better this way; codes whose communication is
// volume-proportional (FT's transpose) gain nothing.
type ScaledResult struct {
	// Scaled is the scaled-speedup surface.
	Scaled *ValueGrid
	// Fixed is the ordinary fixed-size speedup surface of the same kernel,
	// for contrast.
	Fixed *ValueGrid
}

// String renders both surfaces.
func (r *ScaledResult) String() string {
	return r.Scaled.String() + "\n" + r.Fixed.String()
}

// scaledSweep measures T_N(N·w, f) by sweeping the suite grid with run, a
// RunFunc that sizes the workload from w.N. T_1(w, f0) is the swept
// (1, f0) cell, the first of the grid.
func (s Suite) scaledSweep(ctx context.Context, name string, run cluster.RunFunc,
	fixedMeasure func(context.Context) (*Campaign, error)) (*ScaledResult, error) {
	cells, err := cluster.Sweep(ctx, s.Platform, s.Grid, run)
	if err != nil {
		return nil, err
	}
	if cells[0].N != 1 {
		return nil, fmt.Errorf("experiments: %s scaled speedup needs N=1 on the grid, have %v", name, s.Grid.Ns)
	}
	t1 := cells[0].Res.Seconds
	grid := newValueGrid(fmt.Sprintf("%s scaled (fixed-time) speedup", name), s.Grid.Ns, s.Grid.MHz, "%.2f")
	nf := len(s.Grid.MHz)
	for i, c := range cells {
		if c.Res.Seconds <= 0 {
			return nil, fmt.Errorf("experiments: degenerate zero-time run at N=%d f=%g", c.N, c.MHz)
		}
		grid.V[i/nf][i%nf] = float64(c.N) * t1 / c.Res.Seconds
	}

	camp, err := fixedMeasure(ctx)
	if err != nil {
		return nil, err
	}
	_, fixed, err := timeAndSpeedupGrids(name, camp, s.Grid.Ns, s.Grid.MHz)
	if err != nil {
		return nil, err
	}
	fixed.Title = fmt.Sprintf("%s fixed-size speedup", name)
	return &ScaledResult{Scaled: grid, Fixed: fixed}, nil
}

// ScaledEP evaluates fixed-time scaling for EP: the workload doubles with
// every doubling of N (ScaleLog + log₂N), and the scaled speedup is the
// clean N·f/f0 product — Gustafson's best case.
func (s Suite) ScaledEP(ctx context.Context) (*ScaledResult, error) {
	return s.scaledSweep(ctx, "EP", func(w mpi.World) (*mpi.Result, error) {
		ep := s.EP
		for m := w.N; m > 1; m >>= 1 {
			ep.ScaleLog++
		}
		_, r, err := ep.Run(w)
		return r, err
	}, s.MeasureEP)
}

// ScaledMG evaluates fixed-time scaling for MG: the volume grows with N
// while the ghost faces grow only as volume^(2/3), so the scaled surface
// recovers the scalability the fixed-size surface loses — the Sun–Ni
// memory-bounded argument on this substrate.
func (s Suite) ScaledMG(ctx context.Context) (*ScaledResult, error) {
	return s.scaledSweep(ctx, "MG", func(w mpi.World) (*mpi.Result, error) {
		mg := s.MG
		mg.Scale *= float64(w.N)
		_, r, err := mg.Run(w)
		return r, err
	}, s.MeasureMG)
}
