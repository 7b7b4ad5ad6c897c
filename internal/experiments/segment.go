package experiments

import (
	"fmt"
	"sort"

	"pasp/internal/core"
	"pasp/internal/dvfs"
	"pasp/internal/power"
)

// PhaseTimes extracts per-phase, per-configuration times from a campaign's
// traces: each phase's summed duration divided by the rank count (the mean
// rank's share — exact for the synchronized SPMD phases the NAS kernels
// use).
func PhaseTimes(camp *Campaign) map[string]map[core.Config]float64 {
	out := map[string]map[core.Config]float64{}
	for _, cell := range camp.Cells {
		if cell.N < 1 {
			continue // malformed cell: nothing to attribute a share to
		}
		by := cell.Res.Trace.ByPhase()
		for phase, sec := range by {
			if out[phase] == nil {
				out[phase] = map[core.Config]float64{}
			}
			out[phase][core.Config{N: cell.N, MHz: cell.MHz}] = sec / float64(cell.N)
		}
	}
	// Phases that do not occur at some configuration (e.g. communication
	// phases at N=1) are zero there, not missing.
	for _, cell := range camp.Cells {
		for phase := range out {
			cfg := core.Config{N: cell.N, MHz: cell.MHz}
			if _, ok := out[phase][cfg]; !ok {
				out[phase][cfg] = 0
			}
		}
	}
	return out
}

// SegmentResult compares the segment-granularity model (the paper's §7
// future work) against the whole-program SP parameterization on held-out
// interior frequencies.
type SegmentResult struct {
	// Seg and SP are execution-time error grids over the interior
	// frequencies (the fitted columns are excluded — both models are exact
	// or near-exact there by construction).
	Seg, SP *ErrorGrid
	// Sensitivity maps phase → frequency-sensitive fraction at the largest
	// N, the quantity a segment-level DVFS scheduler consumes.
	Sensitivity map[string]float64
}

// String renders the comparison.
func (r *SegmentResult) String() string {
	s := r.Seg.String() + "\n" + r.SP.String() + "\nphase frequency sensitivity (largest N):\n"
	for _, p := range sortedKeys(r.Sensitivity) {
		s += fmt.Sprintf("  %-16s %5.1f%%\n", p, r.Sensitivity[p]*100)
	}
	return s
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SegmentVsSP fits both models from the campaign — SegModel from the two
// extreme frequency columns' per-phase times, SP from the standard slices —
// and scores their execution-time predictions at the interior frequencies.
//
// The comparison is deliberately asymmetric in measurement budget: SP has
// *measured* the one-processor time at every interior frequency, while the
// segment model extrapolates them from two columns. On a platform with a
// pure-1/f frequency response the two tie; on this platform the bus-speed
// drop below 900 MHz (Table 6's 140 ns vs 110 ns) breaks the A + B/f
// family, so the segment model pays a visible penalty at 800 MHz — an
// honest cost of the smaller budget, reported as such in EXPERIMENTS.md.
// The model's distinctive payoff is the per-phase frequency-sensitivity
// classification that drives ModelDrivenDVFS.
func (s Suite) SegmentVsSP(camp *Campaign) (*SegmentResult, error) {
	mhz := s.Grid.MHz
	if len(mhz) < 3 {
		return nil, fmt.Errorf("experiments: segment comparison needs ≥ 3 frequencies")
	}
	lo, hi := mhz[0], mhz[len(mhz)-1]
	interior := mhz[1 : len(mhz)-1]

	seg, err := core.FitSeg(PhaseTimes(camp), lo, hi)
	if err != nil {
		return nil, err
	}
	sp, err := camp.SP()
	if err != nil {
		return nil, err
	}

	segGrid, err := errorGridFrom("Segment-granularity model: execution-time error (held-out frequencies)",
		s.Grid.Ns, interior, seg.PredictTime, timeOf(camp.Meas))
	if err != nil {
		return nil, err
	}
	spGrid, err := errorGridFrom("Whole-program SP: execution-time error (same cells)",
		s.Grid.Ns, interior, sp.PredictTime, timeOf(camp.Meas))
	if err != nil {
		return nil, err
	}

	sens := map[string]float64{}
	maxN := s.Grid.Ns[len(s.Grid.Ns)-1]
	for _, phase := range seg.Phases() {
		v, err := seg.FrequencySensitivity(phase, maxN)
		if err == nil {
			sens[phase] = v
		}
	}
	return &SegmentResult{Seg: segGrid, SP: spGrid, Sensitivity: sens}, nil
}

// SensitivityThreshold is the frequency-sensitive fraction below which a
// phase is scheduled at the bottom gear by the model-driven DVFS policy:
// slowing a phase whose time is mostly flat costs little and saves power.
const SensitivityThreshold = 0.5

// ModelDrivenDVFS builds a DVFS policy *automatically* from the fitted
// segment model — the paper's §7 vision: classify each code segment by its
// measured frequency sensitivity and derate the insensitive ones to the
// bottom gear, leaving the rest at the top. It returns the policy and the
// discovered low-gear phase set.
func (s Suite) ModelDrivenDVFS(camp *Campaign) (dvfs.GearPolicy, []string, error) {
	mhz := s.Grid.MHz
	seg, err := core.FitSeg(PhaseTimes(camp), mhz[0], mhz[len(mhz)-1])
	if err != nil {
		return dvfs.GearPolicy{}, nil, err
	}
	maxN := s.Grid.Ns[len(s.Grid.Ns)-1]
	pol := dvfs.GearPolicy{
		Default:   s.Platform.Prof.TopState(),
		Phases:    map[string]power.PState{},
		SwitchSec: 50e-6,
	}
	var names []string
	for _, phase := range seg.Phases() {
		v, err := seg.FrequencySensitivity(phase, maxN)
		if err != nil {
			continue
		}
		if v < SensitivityThreshold {
			pol.Phases[phase] = s.Platform.Prof.BaseState()
			names = append(names, phase)
		}
	}
	if len(names) == 0 {
		return dvfs.GearPolicy{}, nil, fmt.Errorf("experiments: no frequency-insensitive phases found")
	}
	return pol, names, nil
}

// EDPOptimalGears builds the multi-gear schedule: each phase's fitted
// (A, B) coefficients are priced at every operating point and the gear
// minimizing the phase's predicted energy-delay product is chosen —
// intermediate gears included, which neither a hand-written nor a
// threshold policy can express.
func (s Suite) EDPOptimalGears(camp *Campaign) (dvfs.GearPolicy, error) {
	mhz := s.Grid.MHz
	seg, err := core.FitSeg(PhaseTimes(camp), mhz[0], mhz[len(mhz)-1])
	if err != nil {
		return dvfs.GearPolicy{}, err
	}
	maxN := s.Grid.Ns[len(s.Grid.Ns)-1]
	models := map[string]dvfs.PhaseModel{}
	for _, phase := range seg.Phases() {
		a, b, err := seg.Coefficients(phase, maxN)
		if err != nil {
			continue
		}
		models[phase] = dvfs.PhaseModel{FlatSec: a, ScaledSecMHz: b}
	}
	return dvfs.OptimizeEDP(s.Platform.Prof, maxN, models, 50e-6)
}
