package npb

import (
	"fmt"
	"math"

	"pasp/internal/machine"
	"pasp/internal/mpi"
)

// EP is the NAS "embarrassingly parallel" kernel: evaluate an integral by
// generating 2^LogPairs pseudorandom pairs, accepting those inside the unit
// circle, transforming them to Gaussian deviates (Box–Muller) and tallying
// them into annulus counts. Cluster-wide computation needs a single small
// allreduce at the end, so EP is the paper's computation-bound extreme:
// virtually no OFF-chip work and no parallel overhead.
type EP struct {
	// LogPairs is M: 2^M pairs are actually generated and verified.
	LogPairs int
	// ScaleLog inflates the timed workload by 2^ScaleLog, so a reduced run
	// is billed as the full NAS class (class A is LogPairs+ScaleLog = 28).
	ScaleLog int
}

// Instruction mix per generated pair and per accepted pair. EP's working
// set is a handful of scalars and a 10-entry table, so everything is
// register/L1 traffic — the reason its speedup is the clean product N·f/f0
// (paper Eq. 12).
const (
	epPairRegIns   = 55 // two LCG steps, scaling to [-1,1], t = x²+y², compare
	epPairL1Ins    = 25
	epAcceptRegIns = 30 // log, sqrt, two multiplies, annulus classify
	epAcceptL1Ins  = 10
)

// EPResult is the kernel's verifiable outcome.
type EPResult struct {
	// Sx and Sy are the sums of the accepted Gaussian deviates.
	Sx, Sy float64
	// Q counts accepted deviates per annulus l = ⌊max(|X|,|Y|)⌋.
	Q [10]float64
	// Accepted is the number of accepted pairs (= ΣQ).
	Accepted float64
}

// Validate reports an error for unusable parameters.
func (e EP) Validate() error {
	if e.LogPairs < 1 || e.LogPairs > 40 {
		return fmt.Errorf("npb: EP LogPairs = %d, want 1..40", e.LogPairs)
	}
	if e.ScaleLog < 0 || e.LogPairs+e.ScaleLog > 60 {
		return fmt.Errorf("npb: EP ScaleLog = %d out of range", e.ScaleLog)
	}
	return nil
}

// Run executes EP on the world and returns the verifiable tallies alongside
// the simulation result.
func (e EP) Run(w mpi.World) (EPResult, *mpi.Result, error) {
	if err := e.Validate(); err != nil {
		return EPResult{}, nil, err
	}
	var out EPResult
	res, err := mpi.Run(w, func(c *mpi.Ctx) error {
		r, err := e.rank(c)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = r
		}
		return nil
	})
	if err != nil {
		return EPResult{}, nil, err
	}
	return out, res, nil
}

// rank is the per-rank body: generate this rank's contiguous block of
// pairs, tally, account the workload, and combine with one allreduce.
func (e EP) rank(c *mpi.Ctx) (EPResult, error) {
	total := int64(1) << uint(e.LogPairs)
	n := int64(c.Size())
	r := int64(c.Rank())
	lo := total * r / n
	hi := total * (r + 1) / n

	c.SetPhase("ep-compute")
	rng := newRandlc(uint64(2 * lo)) // each pair consumes two deviates
	var sx, sy float64
	var q [10]float64
	accepted := int64(0)
	for i := lo; i < hi; i++ {
		x := 2*rng.next() - 1
		y := 2*rng.next() - 1
		t := x*x + y*y
		if t > 1 {
			continue
		}
		accepted++
		f := math.Sqrt(-2 * math.Log(t) / t)
		gx, gy := x*f, y*f
		l := int(math.Max(math.Abs(gx), math.Abs(gy)))
		if l > 9 {
			l = 9
		}
		q[l]++
		sx += gx
		sy += gy
	}

	// Bill the full logical workload: every generated pair plus the
	// accepted-pair tail, inflated by the class scale.
	scale := math.Ldexp(1, e.ScaleLog)
	pairs := float64(hi - lo)
	acc := float64(accepted)
	work := machine.W(
		(pairs*epPairRegIns+acc*epAcceptRegIns)*scale,
		(pairs*epPairL1Ins+acc*epAcceptL1Ins)*scale,
		0, 0,
	)
	if err := c.Compute(work); err != nil {
		return EPResult{}, err
	}

	c.SetPhase("ep-allreduce")
	buf := make([]float64, 13)
	buf[0], buf[1], buf[2] = sx, sy, acc
	copy(buf[3:], q[:])
	sum, err := c.Allreduce(buf, mpi.Sum, 0)
	if err != nil {
		return EPResult{}, err
	}
	var res EPResult
	res.Sx, res.Sy, res.Accepted = sum[0], sum[1], sum[2]
	copy(res.Q[:], sum[3:])
	return res, nil
}
