// Package experiments regenerates every table and figure of the paper's
// evaluation: the generalized-Amdahl error grid (Table 1), the EP and FT
// execution-time/speedup surfaces (Figures 1–2), the SP prediction errors
// (Table 3), the LU workload decomposition (Table 5), the per-level and
// communication timings (Table 6), the FP-vs-SP error comparison (Table 7),
// the platform operating points (Table 2) and the energy-delay-product
// prediction claim from the abstract.
//
// Each experiment follows the paper's methodology end to end: it *measures*
// the simulated cluster (never reading model internals), fits the
// parameterizations from the measured slices, and reports prediction error
// against held-out measurements.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"pasp/internal/cluster"
	"pasp/internal/core"
	"pasp/internal/mpi"
	"pasp/internal/npb"
)

// Suite bundles a platform, measurement grids and benchmark classes.
type Suite struct {
	// Platform is the simulated cluster.
	Platform cluster.Platform
	// Grid is the (N, MHz) campaign for EP and FT (Tables 1, 3; Figures 1, 2).
	Grid cluster.Grid
	// LUGrid is the campaign for LU (Table 7 stops at 8 processors).
	LUGrid cluster.Grid
	// EP, FT, LU are the paper's benchmark classes; CG, MG and IS extend
	// the evaluation to the rest of the NAS suite's behaviour space
	// (memory-bound, hierarchical-comm, skewed-exchange).
	EP npb.EP
	FT npb.FT
	LU npb.LU
	CG npb.CG
	MG npb.MG
	IS npb.IS
	SP npb.SP
	// PingReps is the repetition count for MPPTEST-style measurements.
	PingReps int
}

// Paper returns the full-scale suite: the paper's 5×5 grid and classes
// calibrated so the workload shapes match the publication (EP 2^28 logical
// pairs; FT at class-A volume via Scale; LU on the class-A 62³ grid).
func Paper() Suite {
	return Suite{
		Platform: cluster.PentiumM(),
		Grid:     cluster.PaperGrid(),
		LUGrid: cluster.Grid{
			Ns:  []int{1, 2, 4, 8},
			MHz: []float64{600, 800, 1000, 1200, 1400},
		},
		EP:       npb.EP{LogPairs: 18, ScaleLog: 10},
		FT:       npb.FT{Nx: 64, Ny: 64, Nz: 32, Iters: 6, Scale: 64},
		LU:       npb.LU{N: 62, Iters: 30},
		CG:       npb.CG{Size: 14336, OuterIters: 10, CGIters: 25, Scale: 8},
		MG:       npb.MG{Size: 63, Cycles: 4, Scale: 16},
		IS:       npb.IS{LogKeys: 16, LogMaxKey: 19, Iters: 6, ScaleLog: 7},
		SP:       npb.SP{N: 48, Steps: 20},
		PingReps: 30,
	}
}

// Quick returns a reduced suite for fast tests: a 3×2 grid and small
// classes. The shapes remain, the absolute numbers shrink.
func Quick() Suite {
	return Suite{
		Platform: cluster.PentiumM(),
		Grid: cluster.Grid{
			Ns:  []int{1, 2, 4},
			MHz: []float64{600, 1000, 1400},
		},
		LUGrid: cluster.Grid{
			Ns:  []int{1, 2, 4},
			MHz: []float64{600, 1000, 1400},
		},
		EP:       npb.EP{LogPairs: 14, ScaleLog: 6},
		FT:       npb.FT{Nx: 16, Ny: 16, Nz: 16, Iters: 2, Scale: 16},
		LU:       npb.LU{N: 16, Iters: 8},
		CG:       npb.CG{Size: 512, OuterIters: 2, CGIters: 10, Scale: 64},
		MG:       npb.MG{Size: 15, Cycles: 2, Scale: 8},
		IS:       npb.IS{LogKeys: 12, LogMaxKey: 15, Iters: 3, ScaleLog: 5},
		SP:       npb.SP{N: 16, Steps: 4},
		PingReps: 10,
	}
}

// Scale returns the scaling suite: the regime past the paper's 16 nodes,
// N ∈ {16, 64, 256, 1024} at the base and top gears.
// FT and CG are the scaling kernels — CG's 1-D band decomposition (with an
// explicit narrow band, so the halo stays below the per-rank row count)
// reaches the full 1024 ranks, while FT's pencil transpose needs Ny and Nz
// divisible by N and therefore stops at 256: a 1024-rank FT would force a
// 1024² plane and an O(N²) all-to-all. The remaining kernels carry classes
// that stay valid as far as their decompositions allow (EP anywhere, LU to
// 1024, IS/SP to their structural limits), so single-configuration
// commands work unchanged under -suite scale.
func Scale() Suite {
	p := cluster.PentiumM()
	p.MaxNodes = 1024
	// N=1 anchors the speedup surfaces (every figure normalizes against
	// the sequential base run), then the scaling ladder proper.
	g := cluster.Grid{Ns: []int{1, 16, 64, 256, 1024}, MHz: []float64{600, 1400}}
	return Suite{
		Platform: p,
		Grid:     g,
		LUGrid:   g,
		EP:       npb.EP{LogPairs: 16, ScaleLog: 8},
		FT:       npb.FT{Nx: 4, Ny: 256, Nz: 256, Iters: 2, Scale: 16},
		LU:       npb.LU{N: 48, Iters: 4},
		CG:       npb.CG{Size: 65536, Band: 8, OuterIters: 2, CGIters: 10, Scale: 8},
		MG:       npb.MG{Size: 63, Cycles: 2, Scale: 8},
		IS:       npb.IS{LogKeys: 16, LogMaxKey: 19, Iters: 3, ScaleLog: 5},
		SP:       npb.SP{N: 64, Steps: 4},
		PingReps: 10,
	}
}

// Campaign is a measured grid plus the raw per-cell results. Campaigns
// obtained from Kernel.Measure (and the MeasureXX calls through it) are
// memoized process-wide (see store.go) and shared between callers, so a
// Campaign must be treated as read-only after construction. Its one
// synchronized exception is the fit memo: SP and Kernel.FP each fit their
// model on first use, once, and every caller shares the outcome.
type Campaign struct {
	// Meas holds times and energies keyed by configuration.
	Meas *core.Measurements
	// Cells holds the raw simulation results in sweep order.
	Cells []cluster.Cell

	// index maps (N, MHz) to a position in Cells; NewCampaign builds it.
	index map[cellKey]int

	// The fit memo. A failed fit is as deterministic as a successful one
	// (an FP fit on a grid cell that sent no messages), so its error is
	// kept too.
	spOnce, fpOnce sync.Once
	sp             *core.SP
	fp             *core.FP
	spErr, fpErr   error
}

// SP returns the simplified parameterization (Eqs. 16–18) fitted on the
// campaign's measurements. The fit runs once per campaign; every later
// call, from any goroutine, returns the same model or the same error.
func (c *Campaign) SP() (*core.SP, error) {
	c.spOnce.Do(func() { c.sp, c.spErr = core.FitSP(c.Meas) })
	return c.sp, c.spErr
}

// cellKey is the exact-match lookup key of one grid cell. The frequency is
// copied verbatim from Grid.MHz into every cell, so map equality on the
// float64 is the intended exact-key semantics.
type cellKey struct {
	n   int
	mhz float64
}

// Cell returns the raw result of one configuration.
func (c *Campaign) Cell(n int, mhz float64) (*mpi.Result, error) {
	if i, ok := c.index[cellKey{n: n, mhz: mhz}]; ok {
		return c.Cells[i].Res, nil
	}
	return nil, fmt.Errorf("experiments: no cell N=%d f=%g", n, mhz)
}

// NewCampaign assembles a campaign from already-measured cells exactly as a
// fresh sweep would: Meas and the cell index are rebuilt from the cells in
// order. Callers that sweep through cluster.Sweep directly (the GOMAXPROCS
// determinism tests, hand-built grids) use it to get a Campaign with the
// same derived state as a store-measured one.
func NewCampaign(cells []cluster.Cell) *Campaign {
	camp := &Campaign{Meas: core.NewMeasurements(), Cells: cells, index: make(map[cellKey]int, len(cells))}
	for i, c := range cells {
		k := cellKey{n: c.N, mhz: c.MHz}
		if _, ok := camp.index[k]; !ok { // first occurrence wins
			camp.index[k] = i
		}
		camp.Meas.SetTime(c.N, c.MHz, c.Res.Seconds)
		camp.Meas.SetEnergy(c.N, c.MHz, c.Res.Joules)
	}
	return camp
}

// RunFT adapts the FT class to a sweep.
func (s Suite) RunFT(w mpi.World) (*mpi.Result, error) {
	return runOf(s.FT.Run)(w)
}

// MeasureEP runs the EP campaign over the suite grid, memoized.
func (s Suite) MeasureEP(ctx context.Context) (*Campaign, error) {
	return s.MeasureKernel(ctx, "ep")
}

// MeasureFT runs the FT campaign over the suite grid, memoized.
func (s Suite) MeasureFT(ctx context.Context) (*Campaign, error) {
	return s.MeasureKernel(ctx, "ft")
}

// MeasureLU runs the LU campaign over the LU grid, memoized.
func (s Suite) MeasureLU(ctx context.Context) (*Campaign, error) {
	return s.MeasureKernel(ctx, "lu")
}

// MeasureCG runs the CG campaign over the suite grid, memoized.
func (s Suite) MeasureCG(ctx context.Context) (*Campaign, error) {
	return s.MeasureKernel(ctx, "cg")
}

// MeasureMG runs the MG campaign over the suite grid, memoized.
func (s Suite) MeasureMG(ctx context.Context) (*Campaign, error) {
	return s.MeasureKernel(ctx, "mg")
}

// MeasureIS runs the IS campaign over the suite grid, memoized.
func (s Suite) MeasureIS(ctx context.Context) (*Campaign, error) {
	return s.MeasureKernel(ctx, "is")
}

// MeasureSP runs the SP campaign over the suite grid, memoized.
func (s Suite) MeasureSP(ctx context.Context) (*Campaign, error) {
	return s.MeasureKernel(ctx, "sp")
}
