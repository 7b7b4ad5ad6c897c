package experiments

import (
	"context"
	"fmt"
	"slices"

	"pasp/internal/cluster"
	"pasp/internal/core"
	"pasp/internal/stats"
)

// ExtrapolationResult quantifies how well the overhead-growth model (SPX)
// predicts a processor count that was never measured — the experiment the
// paper's footnote 3 could not run for lack of a larger cluster.
type ExtrapolationResult struct {
	// Kernel names the workload.
	Kernel string
	// FitNs are the processor counts the model saw; HeldOutN the count it
	// predicted blind.
	FitNs    []int
	HeldOutN int
	// MHz, Predicted, Measured and Err are per-frequency outcomes at the
	// held-out count.
	MHz       []float64
	Predicted []float64
	Measured  []float64
	Err       []float64
}

// MaxErr returns the largest relative error at the held-out count.
func (r *ExtrapolationResult) MaxErr() float64 { return stats.Max(r.Err) }

// String renders the comparison.
func (r *ExtrapolationResult) String() string {
	s := fmt.Sprintf("%s: overhead model fitted on N=%v, extrapolated to N=%d\n", r.Kernel, r.FitNs, r.HeldOutN)
	for i := range r.MHz {
		s += fmt.Sprintf("  %4.0f MHz: predicted %8.3f s, measured %8.3f s (error %s)\n",
			r.MHz[i], r.Predicted[i], r.Measured[i], stats.Percent(r.Err[i]))
	}
	s += fmt.Sprintf("  max error %s\n", stats.Percent(r.MaxErr()))
	return s
}

// Extrapolate fits SPX on the campaign's configurations with N ≤ maxFitN
// and scores its blind predictions at heldOutN, which must be present in
// the campaign for validation.
func Extrapolate(kernel string, camp *Campaign, maxFitN, heldOutN int) (*ExtrapolationResult, error) {
	x, err := core.FitSPX(camp.Meas, maxFitN)
	if err != nil {
		return nil, err
	}
	res := &ExtrapolationResult{Kernel: kernel, FitNs: x.FittedNs(), HeldOutN: heldOutN}
	for _, mhz := range camp.Meas.Freqs() {
		pred, err := x.PredictTime(heldOutN, mhz)
		if err != nil {
			return nil, err
		}
		meas, err := camp.Meas.Time(heldOutN, mhz)
		if err != nil {
			return nil, fmt.Errorf("experiments: held-out N=%d not measured: %w", heldOutN, err)
		}
		res.MHz = append(res.MHz, mhz)
		res.Predicted = append(res.Predicted, pred)
		res.Measured = append(res.Measured, meas)
		res.Err = append(res.Err, stats.RelError(pred, meas))
	}
	return res, nil
}

// ExtrapolateLU runs the footnote-3 experiment on LU, whose wavefront and
// message overheads grow smoothly with N: measure N ∈ {1..8} plus a
// validation run at 16, fit on ≤ 8, predict 16. The fit rows reuse the
// memoized LU campaign; the held-out N=16 row is measured through an LU
// kernel built on that one-row grid, memoized under its own key. Every
// cell is an independent deterministic simulation and cluster.Sweep
// orders cells Ns-outer/MHz-inner, so concatenating the two campaigns
// reproduces the extended-grid sweep cell for cell, bit-identically.
func (s Suite) ExtrapolateLU(ctx context.Context) (*ExtrapolationResult, error) {
	lu, err := s.Kernel("lu")
	if err != nil {
		return nil, err
	}
	base, err := lu.Measure(ctx)
	if err != nil {
		return nil, err
	}
	g := cluster.Grid{Ns: []int{16}, MHz: s.LUGrid.MHz}
	held, err := s.newKernel(lu.Name, s.LU, g, lu.Run, lu.key.platform).Measure(ctx)
	if err != nil {
		return nil, err
	}
	// slices.Concat copies into a fresh array: both inputs are shared store
	// entries, and appending to base.Cells could write into its spare
	// capacity under a concurrent caller.
	return Extrapolate("LU", NewCampaign(slices.Concat(base.Cells, held.Cells)), 8, 16)
}

// ExtrapolateFT runs the same experiment on FT, where the transpose
// alltoall crosses the fabric's contention knee between 8 and 16 nodes —
// the regime change no smooth overhead model can see from below.
func (s Suite) ExtrapolateFT(ctx context.Context) (*ExtrapolationResult, error) {
	camp, err := s.MeasureFT(ctx)
	if err != nil {
		return nil, err
	}
	return Extrapolate("FT", camp, 8, 16)
}
