package core

import (
	"fmt"

	"pasp/internal/machine"
	"pasp/internal/units"
)

// FP is the fine-grain parameterization of Section 5.2. Instead of
// measuring whole-program times, it composes the prediction from measured
// low-level parameters:
//
//	Step 1 — workload distribution: hardware counters classify the
//	         program's instructions by memory level (Table 5).
//	Step 2 — workload time: an LMbench-style sweep measures the seconds per
//	         instruction of each level at each frequency (Table 6), and an
//	         MPPTEST-style ping-pong prices the profiled communication.
//	Step 3 — composition: Eq. 14 predicts the sequential time, Eq. 15 adds
//	         the communication time to the perfectly-parallelized share.
type FP struct {
	// Work is the per-level instruction mix of the whole program (Step 1).
	Work machine.Work
	// SecPerIns maps frequency (MHz) to the measured time per instruction
	// at each level (Step 2).
	SecPerIns map[float64][machine.NumLevels]units.Seconds
	// CommSec maps processor count, then frequency (MHz), to the total
	// communication time of the run: profiled message count × measured
	// per-message time (Step 2).
	CommSec map[int]map[float64]units.Seconds
}

// Validate reports an error for a model missing its required parameters.
func (f *FP) Validate() error {
	if err := f.Work.Validate(); err != nil {
		return err
	}
	if f.Work.Total() == 0 {
		return fmt.Errorf("core: FP has an empty workload")
	}
	if len(f.SecPerIns) == 0 {
		return fmt.Errorf("core: FP has no per-level timings")
	}
	for mhz, sec := range f.SecPerIns {
		for l, s := range sec {
			if s <= 0 {
				return fmt.Errorf("core: FP sec/ins at %g MHz level %v not positive", mhz, machine.Level(l))
			}
		}
	}
	return nil
}

// PredictT1 evaluates Eq. 14: the sequential execution time as the dot
// product of the per-level workload and the per-level seconds per
// instruction at the given frequency.
func (f *FP) PredictT1(mhz float64) (units.Seconds, error) {
	sec, ok := f.SecPerIns[mhz]
	if !ok {
		return 0, fmt.Errorf("core: FP has no level timings at %g MHz", mhz)
	}
	t := units.Seconds(0)
	for l := machine.Reg; l < machine.NumLevels; l++ {
		t += sec[l].Times(f.Work.Ops[l])
	}
	return t, nil
}

// PredictTime evaluates Eq. 15: the fully-parallelized sequential time plus
// the measured communication time for this processor count and frequency.
func (f *FP) PredictTime(n int, mhz float64) (units.Seconds, error) {
	if n < 1 {
		return 0, fmt.Errorf("core: N = %d", n)
	}
	t1, err := f.PredictT1(mhz)
	if err != nil {
		return 0, err
	}
	comm := units.Seconds(0)
	if n > 1 {
		byN, ok := f.CommSec[n]
		if !ok {
			return 0, fmt.Errorf("core: FP has no communication profile for N=%d", n)
		}
		comm, ok = byN[mhz]
		if !ok {
			return 0, fmt.Errorf("core: FP has no communication time for N=%d at %g MHz", n, mhz)
		}
	}
	return t1.Div(float64(n)) + comm, nil
}
