package experiments

import (
	"context"
	"pasp/internal/core"
	"pasp/internal/units"
)

// EDPResult holds the energy-delay prediction experiment for one kernel:
// the abstract claims the model "predicts (within 7%) the power-aware
// performance and energy-delay products for various system configurations".
type EDPResult struct {
	// Time is the SP-model execution-time error grid.
	Time *ErrorGrid
	// EDP is the energy-delay-product error grid, with energy predicted
	// from the time model and the platform's power law.
	EDP *ErrorGrid
}

// String renders both grids.
func (r *EDPResult) String() string {
	return r.Time.String() + "\n" + r.EDP.String()
}

// EDPFrom predicts execution time with the SP parameterization and energy
// as N·P(f)·T (busy-poll utilization 1.0), then scores both against the
// simulator's measured time and integrated energy.
func (s Suite) EDPFrom(name string, camp *Campaign, ns []int, mhz []float64) (*EDPResult, error) {
	sp, err := camp.SP()
	if err != nil {
		return nil, err
	}
	timeGrid, err := errorGridFrom(name+" execution-time error (SP)",
		ns, mhz, sp.PredictTime, timeOf(camp.Meas))
	if err != nil {
		return nil, err
	}
	predictEDP := func(n int, f float64) (float64, error) {
		t, err := sp.PredictTime(n, f)
		if err != nil {
			return 0, err
		}
		st, err := s.Platform.Prof.StateAt(units.MHz(f))
		if err != nil {
			return 0, err
		}
		return core.PredictEDP(s.Platform.Prof, st, n, units.Seconds(t), 1.0)
	}
	measuredEDP := func(n int, f float64) (float64, error) {
		return camp.Meas.EDP(n, f)
	}
	edpGrid, err := errorGridFrom(name+" energy-delay-product error",
		ns, mhz, predictEDP, measuredEDP)
	if err != nil {
		return nil, err
	}
	return &EDPResult{Time: timeGrid, EDP: edpGrid}, nil
}

// EDPForFT runs the FT campaign and scores the EDP predictions (the
// abstract's headline claim, on the paper's communication-bound workload).
func (s Suite) EDPForFT(ctx context.Context) (*EDPResult, error) {
	camp, err := s.MeasureFT(ctx)
	if err != nil {
		return nil, err
	}
	return s.EDPFrom("FT", camp, s.Grid.Ns[1:], s.Grid.MHz)
}

// SweetSpotFrom computes the measured and model-recommended EDP optima
// from an existing campaign.
func (s Suite) SweetSpotFrom(camp *Campaign) (measured, predicted core.Candidate, err error) {
	measured, err = core.SweetSpot(camp.Meas, core.MinEDP, 0)
	if err != nil {
		return core.Candidate{}, core.Candidate{}, err
	}
	sp, err := camp.SP()
	if err != nil {
		return core.Candidate{}, core.Candidate{}, err
	}
	predictedMeas := core.NewMeasurements()
	for _, n := range camp.Meas.Ns() {
		for _, f := range camp.Meas.Freqs() {
			t, err := sp.PredictTime(n, f)
			if err != nil {
				return core.Candidate{}, core.Candidate{}, err
			}
			st, err := s.Platform.Prof.StateAt(units.MHz(f))
			if err != nil {
				return core.Candidate{}, core.Candidate{}, err
			}
			e, err := core.PredictEnergy(s.Platform.Prof, st, n, units.Seconds(t), 1.0)
			if err != nil {
				return core.Candidate{}, core.Candidate{}, err
			}
			predictedMeas.SetTime(n, f, t)
			predictedMeas.SetEnergy(n, f, float64(e))
		}
	}
	predicted, err = core.SweetSpot(predictedMeas, core.MinEDP, 0)
	return measured, predicted, err
}
