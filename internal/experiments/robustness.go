package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"pasp/internal/cluster"
	"pasp/internal/faults"
	"pasp/internal/stats"
	"pasp/internal/table"
)

// The robustness campaign is a new results axis on top of the paper's
// evaluation: the SP and FP parameterizations are fitted on the *clean*
// (fault-free) measurement campaign — the golden numbers — and then scored
// against measurements of the same kernel on a progressively perturbed
// cluster. The paper's models assume quiet homogeneous nodes; the campaign
// quantifies how fast their prediction error grows once latency jitter,
// drops, transient bandwidth degradation or stragglers break that
// assumption.

// RobustnessSpec configures one robustness sweep.
type RobustnessSpec struct {
	// Kernel names the benchmark ("ft", "lu", ...); the clean fit uses its
	// registered campaign grid.
	Kernel string
	// Ns are the processor counts measured under perturbation, strictly
	// ascending; each must be a point of the kernel's campaign grid so the
	// clean-fitted SP model has an overhead term for it.
	Ns []int
	// Magnitudes are the perturbation scale factors applied to Faults via
	// Config.Scale, ascending and at most 16; conventionally starting at 0
	// (the control row, which reproduces the clean fit error).
	Magnitudes []float64
	// Faults holds the knobs at magnitude 1.
	Faults faults.Config
}

// maxMagnitudes bounds a spec's magnitude list. Each magnitude costs one
// replay per N, so an unbounded list lets one paserve request hold an
// admission slot for as long as its body allows; pachaos sends 4 by
// default.
const maxMagnitudes = 16

// Validate reports an error for an unusable spec.
func (r RobustnessSpec) Validate() error {
	if r.Kernel == "" {
		return fmt.Errorf("experiments: robustness spec has no kernel")
	}
	if len(r.Ns) == 0 {
		return fmt.Errorf("experiments: robustness spec has no processor counts")
	}
	if len(r.Magnitudes) == 0 {
		return fmt.Errorf("experiments: robustness spec has no magnitudes")
	}
	if len(r.Magnitudes) > maxMagnitudes {
		return fmt.Errorf("experiments: robustness spec has %d magnitudes, at most %d", len(r.Magnitudes), maxMagnitudes)
	}
	for i := 1; i < len(r.Ns); i++ {
		if r.Ns[i] <= r.Ns[i-1] {
			return fmt.Errorf("experiments: robustness processor counts not ascending at %d", i)
		}
	}
	for i := 1; i < len(r.Magnitudes); i++ {
		if r.Magnitudes[i] <= r.Magnitudes[i-1] {
			return fmt.Errorf("experiments: robustness magnitudes not ascending at %d", i)
		}
	}
	if err := r.Faults.Validate(); err != nil {
		return err
	}
	for _, m := range r.Magnitudes {
		if err := r.Faults.Scale(m).Validate(); err != nil {
			return fmt.Errorf("experiments: robustness magnitude %g: %w", m, err)
		}
	}
	if !r.Faults.Enabled() {
		return fmt.Errorf("experiments: robustness spec's fault config injects nothing at magnitude 1")
	}
	return nil
}

// DefaultRobustnessFaults returns the reference knob setting at magnitude 1:
// strong latency jitter with mild drop, degradation and straggler rates, so
// scaling the magnitude moves the cluster smoothly from quiet to hostile.
func DefaultRobustnessFaults(seed uint64) faults.Config {
	return faults.Config{
		Seed:              seed,
		LatencyJitterFrac: 1.0,
		DropProb:          0.01,
		DegradeProb:       0.05,
		DegradeFactor:     2,
		StragglerFrac:     0.1,
		StragglerSlowdown: 1.5,
	}
}

// JitterOnlyFaults returns a pure latency-jitter config at magnitude 1:
// the axis of the headline robustness claim. With a fixed seed, the drawn
// uniforms are identical at every magnitude (the draw count per message is
// constant), so the injected time — and with it the prediction error — is
// monotone in the magnitude.
func JitterOnlyFaults(seed uint64) faults.Config {
	return faults.Config{Seed: seed, LatencyJitterFrac: 1.0}
}

// RobustnessResult holds one sweep's outcome. All slices are indexed
// [magnitude][n].
type RobustnessResult struct {
	// Spec echoes the input.
	Spec RobustnessSpec
	// BaseMHz is the frequency every perturbed run executes at (the clean
	// campaign's base frequency, where the SP fit is exact by
	// construction — any error is perturbation, not parameterization).
	BaseMHz float64
	// MeasSec are the perturbed measured execution times.
	MeasSec [][]float64
	// SPErr and FPErr are the relative errors of the clean-fitted SP and FP
	// time predictions against the perturbed measurements.
	SPErr, FPErr [][]float64
	// FaultSec is the summed injected time across ranks per run.
	FaultSec [][]float64
	// Retries is the total injected retransmissions per run.
	Retries [][]int
}

// Robustness runs the sweep: take SP and FP as fitted on the kernel's clean
// memoized campaign (its fit memo, so a repeated sweep does not refit),
// then measure the Ns at the base frequency on one platform per magnitude,
// each carrying the scaled fault config, in one cluster.SweepPlatforms
// call: the kernel runs once per N, recorded at the first magnitude, and
// every other magnitude replays the tape under its own fault config, bit
// for bit a direct run. Perturbed cells never enter the campaign store
// (each scaled platform would be a distinct store identity), so repeated
// sweeps re-derive — and therefore actually test — the harness's
// determinism. A failing cell's error names its magnitude. A cancelled ctx
// stops the sweep at the next cell boundary with an error wrapping
// ctx.Err().
func (s Suite) Robustness(ctx context.Context, spec RobustnessSpec) (*RobustnessResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	k, err := s.Kernel(spec.Kernel)
	if err != nil {
		return nil, err
	}
	if err := k.Grid.Validate(); err != nil {
		return nil, err
	}
	for _, n := range spec.Ns {
		if !k.Grid.Has(n, k.Grid.MHz[0]) {
			return nil, fmt.Errorf("experiments: robustness N=%d is not on %s's campaign grid %v",
				n, spec.Kernel, k.Grid.Ns)
		}
	}
	camp, err := k.Measure(ctx)
	if err != nil {
		return nil, err
	}
	sp, err := camp.SP()
	if err != nil {
		return nil, err
	}
	fp, err := k.FP(camp)
	if err != nil {
		return nil, err
	}
	base, err := camp.Meas.BaseMHz()
	if err != nil {
		return nil, err
	}
	out := &RobustnessResult{Spec: spec, BaseMHz: base}
	g := cluster.Grid{Ns: spec.Ns, MHz: []float64{base}}
	ps := make([]cluster.Platform, len(spec.Magnitudes))
	for i, m := range spec.Magnitudes {
		ps[i] = s.Platform
		ps[i].Faults = spec.Faults.Scale(m)
	}
	rows, err := cluster.SweepPlatforms(ctx, ps, g, k.Run)
	var pe *cluster.PlatformError
	if errors.As(err, &pe) {
		return nil, fmt.Errorf("experiments: robustness %s mag=%g: %w", spec.Kernel, spec.Magnitudes[pe.Index], pe.Err)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: robustness %s: %w", spec.Kernel, err)
	}
	for _, cells := range rows {
		var meas, spErr, fpErr, fsec []float64
		var retries []int
		for _, c := range cells {
			spPred, err := sp.PredictTime(c.N, base)
			if err != nil {
				return nil, err
			}
			fpPred, err := fp.PredictTime(c.N, base)
			if err != nil {
				return nil, err
			}
			meas = append(meas, c.Res.Seconds)
			spErr = append(spErr, stats.RelError(spPred, c.Res.Seconds))
			fpErr = append(fpErr, stats.RelError(float64(fpPred), c.Res.Seconds))
			fsec = append(fsec, c.Res.FaultSec())
			retries = append(retries, c.Res.Retries())
		}
		out.MeasSec = append(out.MeasSec, meas)
		out.SPErr = append(out.SPErr, spErr)
		out.FPErr = append(out.FPErr, fpErr)
		out.FaultSec = append(out.FaultSec, fsec)
		out.Retries = append(out.Retries, retries)
	}
	return out, nil
}

// errTable renders one error matrix as a magnitude × N table.
func (r *RobustnessResult) errTable(title string, v [][]float64) string {
	header := make([]string, 0, len(r.Spec.Ns)+1)
	header = append(header, "magnitude")
	for _, n := range r.Spec.Ns {
		header = append(header, fmt.Sprintf("N=%d", n))
	}
	t := table.New(title, header...)
	for i, m := range r.Spec.Magnitudes {
		row := make([]string, 0, len(v[i])+1)
		row = append(row, fmt.Sprintf("%g", m))
		for _, e := range v[i] {
			row = append(row, stats.Percent(e))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// String renders the sweep in the paper's table idiom: the clean-fitted SP
// and FP prediction errors against the perturbed measurements, plus the
// injected-time/retry diagnostics.
func (r *RobustnessResult) String() string {
	var b strings.Builder
	name := strings.ToUpper(r.Spec.Kernel)
	fmt.Fprintf(&b, "%s robustness at %g MHz (models fitted on the clean campaign)\n\n", name, r.BaseMHz)
	b.WriteString(r.errTable(fmt.Sprintf("SP prediction error vs perturbed %s", name), r.SPErr))
	b.WriteString("\n")
	b.WriteString(r.errTable(fmt.Sprintf("FP prediction error vs perturbed %s", name), r.FPErr))
	b.WriteString("\n")
	header := make([]string, 0, len(r.Spec.Ns)+1)
	header = append(header, "magnitude")
	for _, n := range r.Spec.Ns {
		header = append(header, fmt.Sprintf("N=%d", n))
	}
	t := table.New("measured time (s) / injected time (s) / retries", header...)
	for i, m := range r.Spec.Magnitudes {
		row := make([]string, 0, len(r.Spec.Ns)+1)
		row = append(row, fmt.Sprintf("%g", m))
		for j := range r.Spec.Ns {
			row = append(row, fmt.Sprintf("%.3f / %.3f / %d", r.MeasSec[i][j], r.FaultSec[i][j], r.Retries[i][j]))
		}
		t.AddRow(row...)
	}
	b.WriteString(t.String())
	return b.String()
}

// CSV renders the sweep as comma-separated rows for plotting:
// kernel,magnitude,n,meas_sec,sp_err,fp_err,fault_sec,retries.
func (r *RobustnessResult) CSV() string {
	var b strings.Builder
	b.WriteString("kernel,magnitude,n,meas_sec,sp_err,fp_err,fault_sec,retries\n")
	for i, m := range r.Spec.Magnitudes {
		for j, n := range r.Spec.Ns {
			fmt.Fprintf(&b, "%s,%g,%d,%.9f,%.9f,%.9f,%.9f,%d\n",
				r.Spec.Kernel, m, n, r.MeasSec[i][j], r.SPErr[i][j], r.FPErr[i][j],
				r.FaultSec[i][j], r.Retries[i][j])
		}
	}
	return b.String()
}
