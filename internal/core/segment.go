package core

import (
	"fmt"
	"sort"
)

// SegModel is the segment-granularity power-aware model the paper's
// conclusion proposes as future work: instead of one whole-program
// decomposition, each code segment (phase) gets its own frequency model
//
//	T_p(N, f) = A_p(N) + B_p(N)/f
//
// where A_p is the segment's frequency-insensitive time (OFF-chip work,
// wire time, latency) and B_p/f its frequency-scaled time (ON-chip work,
// per-byte protocol cost). The two coefficients are identified exactly from
// measurements at two frequencies per processor count, so the model needs
// 2·|N| profiled runs (versus SP's |N|+|F|−1) but captures what SP's
// Assumption 2 discards: communication segments that are *partially*
// frequency sensitive.
type SegModel struct {
	loMHz, hiMHz float64
	// terms[phase][n] = {A seconds, B seconds·MHz}.
	terms map[string]map[int][2]float64
}

// FitSeg identifies every phase's coefficients from its measured times at
// the two frequencies loMHz < hiMHz for each processor count present.
// phaseTimes maps phase → configuration → seconds; every phase must be
// measured at both frequencies for the same set of processor counts.
func FitSeg(phaseTimes map[string]map[Config]float64, loMHz, hiMHz float64) (*SegModel, error) {
	if len(phaseTimes) == 0 {
		return nil, fmt.Errorf("core: no phase measurements")
	}
	if loMHz <= 0 || hiMHz <= loMHz {
		return nil, fmt.Errorf("core: need 0 < loMHz < hiMHz, got %g, %g", loMHz, hiMHz)
	}
	m := &SegModel{loMHz: loMHz, hiMHz: hiMHz, terms: map[string]map[int][2]float64{}}
	for phase, times := range phaseTimes {
		byN := map[int][2]float64{} // n → {tLo, tHi}
		seen := map[int][2]bool{}
		for cfg, sec := range times {
			if sec < 0 {
				return nil, fmt.Errorf("core: negative time for phase %q at %v", phase, cfg)
			}
			cur := byN[cfg.N]
			s := seen[cfg.N]
			switch cfg.MHz {
			case loMHz:
				cur[0], s[0] = sec, true
			case hiMHz:
				cur[1], s[1] = sec, true
			default:
				continue // other frequencies are held out for evaluation
			}
			byN[cfg.N] = cur
			seen[cfg.N] = s
		}
		m.terms[phase] = map[int][2]float64{}
		for n, s := range seen {
			if !s[0] || !s[1] {
				return nil, fmt.Errorf("core: phase %q lacks both frequency columns at N=%d", phase, n)
			}
			tLo, tHi := byN[n][0], byN[n][1]
			// Solve A + B/fLo = tLo, A + B/fHi = tHi.
			b := (tLo - tHi) / (1/loMHz - 1/hiMHz)
			a := tLo - b/loMHz
			if a < 0 {
				// Measurement noise can push the flat term slightly
				// negative; clamp it and fold the residue into B so the
				// fitted point at the low column stays matched.
				a = 0
				b = tLo * loMHz
			}
			m.terms[phase][n] = [2]float64{a, b}
		}
	}
	return m, nil
}

// Phases returns the modelled phase names, sorted.
func (m *SegModel) Phases() []string {
	out := make([]string, 0, len(m.terms))
	for p := range m.terms {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// PredictPhase returns one phase's predicted time at a configuration.
func (m *SegModel) PredictPhase(phase string, n int, mhz float64) (float64, error) {
	byN, ok := m.terms[phase]
	if !ok {
		return 0, fmt.Errorf("core: unknown phase %q", phase)
	}
	ab, ok := byN[n]
	if !ok {
		return 0, fmt.Errorf("core: phase %q not fitted at N=%d", phase, n)
	}
	if mhz <= 0 {
		return 0, fmt.Errorf("core: frequency %g MHz", mhz)
	}
	t := ab[0] + ab[1]/mhz
	if t < 0 {
		t = 0
	}
	return t, nil
}

// PredictTime returns the whole program's predicted time: the sum of its
// segments (SPMD segments execute back to back on the critical path).
func (m *SegModel) PredictTime(n int, mhz float64) (float64, error) {
	total := 0.0
	for _, phase := range m.Phases() { // sorted: a float sum depends on its order
		t, err := m.PredictPhase(phase, n, mhz)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// Coefficients returns one phase's fitted (A, B) pair at a processor
// count: T(f) = A + B/fMHz. DVFS optimizers consume these to price the
// phase at every gear.
func (m *SegModel) Coefficients(phase string, n int) (flatSec, scaledSecMHz float64, err error) {
	byN, ok := m.terms[phase]
	if !ok {
		return 0, 0, fmt.Errorf("core: unknown phase %q", phase)
	}
	ab, ok := byN[n]
	if !ok {
		return 0, 0, fmt.Errorf("core: phase %q not fitted at N=%d", phase, n)
	}
	return ab[0], ab[1], nil
}

// FrequencySensitivity returns the fraction of a phase's time at (n, loMHz)
// that scales with frequency — B/(A·f+B). DVFS schedulers use it to decide
// which segments can run at a low gear cheaply.
func (m *SegModel) FrequencySensitivity(phase string, n int) (float64, error) {
	byN, ok := m.terms[phase]
	if !ok {
		return 0, fmt.Errorf("core: unknown phase %q", phase)
	}
	ab, ok := byN[n]
	if !ok {
		return 0, fmt.Errorf("core: phase %q not fitted at N=%d", phase, n)
	}
	if m.loMHz <= 0 {
		return 0, fmt.Errorf("core: segment model has no base frequency (zero-value SegModel?)")
	}
	total := ab[0] + ab[1]/m.loMHz
	if total == 0 {
		return 0, nil
	}
	return (ab[1] / m.loMHz) / total, nil
}
