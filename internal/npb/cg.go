package npb

import (
	"fmt"
	"math"

	"pasp/internal/machine"
	"pasp/internal/mpi"
)

// CG is the NAS conjugate-gradient kernel: estimate the smallest
// eigenvalue of a sparse symmetric positive-definite matrix with inverse
// power iteration, solving A·z = x by OuterIters × CGIters conjugate
// gradient steps. Its profile complements EP and FT: the sparse
// matrix-vector product streams the matrix from memory every iteration
// (strongly OFF-chip bound, so DVFS barely hurts it), and every CG step
// costs a chain of latency-bound allreduces (the dot products — CG's
// classic scaling bottleneck on commodity networks) plus halo exchanges of
// the band-width vector segments the SpMV needs from the neighbours.
//
// The matrix is the symmetric 7-band operator d·I − shifts at offsets
// ±1, ±Band, ±Band² (a 3-D Laplacian flattened to 1-D bands), which is SPD
// for d > 6 and gives CG the NPB kernel's streaming access pattern while
// keeping the spectrum — and therefore the convergence behaviour —
// verifiable in closed form. (NPB's randomized makea pattern is replaced
// by a deterministic one; the communication and memory profile, which is
// what the power-aware model sees, is preserved.)
type CG struct {
	// Size is the matrix dimension; it must be divisible by the rank count.
	Size int
	// Band is the stride of the outer diagonal bands; 0 picks the cube
	// root of Size (the flattened 3-D structure's natural strides 1, m, m²).
	Band int
	// OuterIters is the number of inverse-power iterations.
	OuterIters int
	// CGIters is the number of CG steps per solve (NPB uses 25).
	CGIters int
	// Diag is the diagonal value d > 6; 0 picks the NPB-flavoured 6.5.
	Diag float64
	// Scale inflates the timed matrix workload, modelling a denser
	// operator (NPB's makea has ~11 nonzeros per row and heavy setup); it
	// deliberately does not widen the halo exchanges, which depend on the
	// band structure, not the density. 0 means 1.
	Scale float64
}

// Per-nonzero and per-vector-element instruction mixes. The matrix row
// (values + indices) streams from memory each SpMV; the source vector is
// L2-resident at NAS sizes.
const (
	cgNnzReg = 2.0
	cgNnzL1  = 1.2
	cgNnzL2  = 0.5
	cgNnzMem = 0.25
	cgVecReg = 3.0 // axpy/dot per element
	cgVecL1  = 2.0
	cgVecMem = 0.25
)

// nnzPerRow is the band count of the operator.
const nnzPerRow = 7

// CGResult is the kernel's verifiable outcome.
type CGResult struct {
	// Zeta is the eigenvalue estimate after the final outer iteration.
	Zeta float64
	// Residual is the final CG residual norm of the last solve.
	Residual float64
}

func (c CG) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

func (c CG) band() int {
	if c.Band > 0 {
		return c.Band
	}
	return int(math.Round(math.Cbrt(float64(c.Size))))
}

func (c CG) diag() float64 {
	if c.Diag != 0 {
		return c.Diag
	}
	return 6.5
}

// Validate reports an error for unusable parameters on n ranks.
func (c CG) Validate(n int) error {
	if c.Size < 8 {
		return fmt.Errorf("npb: CG size %d, want ≥ 8", c.Size)
	}
	if c.Size%n != 0 {
		return fmt.Errorf("npb: CG size %d not divisible by %d ranks", c.Size, n)
	}
	if c.OuterIters < 1 || c.CGIters < 1 {
		return fmt.Errorf("npb: CG iterations must be ≥ 1")
	}
	if b := c.band(); b < 2 || b*b >= c.Size {
		return fmt.Errorf("npb: CG band %d out of range for size %d", b, c.Size)
	}
	if b := c.band(); c.Size/n < b*b {
		return fmt.Errorf("npb: CG rows per rank %d below halo width %d; reduce ranks or band", c.Size/n, b*b)
	}
	if c.diag() <= 6 {
		return fmt.Errorf("npb: CG diagonal %g ≤ 6 is not positive definite", c.diag())
	}
	if c.Scale < 0 {
		return fmt.Errorf("npb: CG negative scale")
	}
	return nil
}

// Run executes CG on the world.
func (c CG) Run(w mpi.World) (CGResult, *mpi.Result, error) {
	if err := c.Validate(w.N); err != nil {
		return CGResult{}, nil, err
	}
	var out CGResult
	res, err := mpi.Run(w, func(ctx *mpi.Ctx) error {
		r, err := c.rank(ctx)
		if err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			out = r
		}
		return nil
	})
	if err != nil {
		return CGResult{}, nil, err
	}
	return out, res, nil
}

// cgState carries one rank's share: rows [lo, hi) of the operator plus a
// halo-extended vector buffer.
type cgState struct {
	c      CG
	ctx    *mpi.Ctx
	lo, hi int
	n      int
	band   int
	halo   int // band² — the widest off-diagonal reach
	d      float64
	scale  float64
	xExt   []float64 // len rows + 2·halo; local values at [halo, halo+rows)
}

// haloExchange fills xExt's halo regions with the neighbours' boundary
// segments of the local vector x. Sends toward higher ranks run first (the
// top rank anchors the chain), so rendezvous-sized halos cannot deadlock.
func (s *cgState) haloExchange(x []float64) error {
	rows := s.hi - s.lo
	copy(s.xExt[s.halo:], x)
	if s.ctx.Size() == 1 {
		return nil
	}
	s.ctx.SetPhase("cg-halo")
	rank, n := s.ctx.Rank(), s.ctx.Size()
	vb := s.halo * 8
	// Upward: my top halo-width segment feeds the upper neighbour's lower
	// halo.
	if rank+1 < n {
		if err := s.ctx.Send(rank+1, 80, x[rows-s.halo:], vb); err != nil {
			return err
		}
	}
	if rank > 0 {
		got, err := s.ctx.Recv(rank-1, 80)
		if err != nil {
			return err
		}
		copy(s.xExt[:s.halo], got)
		s.ctx.Free(got)
	} else {
		for i := 0; i < s.halo; i++ {
			s.xExt[i] = 0 // domain boundary
		}
	}
	// Downward: my bottom segment feeds the lower neighbour's upper halo.
	if rank > 0 {
		if err := s.ctx.Send(rank-1, 81, x[:s.halo], vb); err != nil {
			return err
		}
	}
	if rank+1 < n {
		got, err := s.ctx.Recv(rank+1, 81)
		if err != nil {
			return err
		}
		copy(s.xExt[s.halo+rows:], got)
		s.ctx.Free(got)
	} else {
		for i := s.halo + rows; i < len(s.xExt); i++ {
			s.xExt[i] = 0
		}
	}
	return nil
}

// spmv computes y = A·x for the local rows; x is the local segment, and
// the band neighbours come from the halo exchange.
func (s *cgState) spmv(x []float64, y []float64) error {
	if err := s.haloExchange(x); err != nil {
		return err
	}
	s.ctx.SetPhase("cg-spmv")
	// Every neighbour offset is within ±band² = ±halo of row i, so all
	// seven accesses land inside xExt: [0, halo) and [halo+rows, end) hold
	// the neighbours' boundary segments or explicit zeros at the domain
	// edges (haloExchange), which reproduces the old out-of-domain guard
	// without a branch per access.
	b, b2 := s.band, s.halo
	xe, d := s.xExt, s.d
	for j := 0; j < s.hi-s.lo; j++ {
		e := j + b2
		y[j] = d*xe[e] - xe[e-1] - xe[e+1] - xe[e-b] - xe[e+b] - xe[e-b2] - xe[e+b2]
	}
	rows := float64(s.hi - s.lo)
	nnz := rows * nnzPerRow
	return s.ctx.Compute(machine.W(
		nnz*cgNnzReg*s.scale, nnz*cgNnzL1*s.scale, nnz*cgNnzL2*s.scale, nnz*cgNnzMem*s.scale))
}

// billVector accounts k vector operations (dot/axpy) over the local rows.
func (s *cgState) billVector(k float64) error {
	rows := float64(s.hi-s.lo) * k
	return s.ctx.Compute(machine.W(
		rows*cgVecReg*s.scale, rows*cgVecL1*s.scale, 0, rows*cgVecMem*s.scale))
}

// dot computes the global dot product of two local segments.
func (s *cgState) dot(a, b []float64) (float64, error) {
	local := 0.0
	for i := range a {
		local += a[i] * b[i]
	}
	if err := s.billVector(1); err != nil {
		return 0, err
	}
	sum, err := s.ctx.Allreduce([]float64{local}, mpi.Sum, 8)
	if err != nil {
		return 0, err
	}
	return sum[0], nil
}

func (c CG) rank(ctx *mpi.Ctx) (CGResult, error) {
	n := c.Size
	rows := n / ctx.Size()
	b := c.band()
	s := &cgState{
		c:     c,
		ctx:   ctx,
		lo:    ctx.Rank() * rows,
		hi:    (ctx.Rank() + 1) * rows,
		n:     n,
		band:  b,
		halo:  b * b,
		d:     c.diag(),
		scale: c.scale(),
	}
	s.xExt = make([]float64, rows+2*s.halo)

	// cg-init labels allocation that bills no virtual time by design; the
	// zero-width phase keeps the event stream stable.
	ctx.SetPhase("cg-init")
	// x starts as the all-ones vector, as in NPB.
	x := make([]float64, rows)
	for i := range x {
		x[i] = 1
	}
	z := make([]float64, rows)
	r := make([]float64, rows)
	p := make([]float64, rows)
	q := make([]float64, rows)

	var result CGResult
	for outer := 0; outer < c.OuterIters; outer++ {
		// Solve A z = x by CGIters steps of conjugate gradient.
		ctx.SetPhase("cg-solve")
		for i := range z {
			z[i] = 0
			r[i] = x[i]
			p[i] = x[i]
		}
		rho, err := s.dot(r, r)
		if err != nil {
			return CGResult{}, err
		}
		for it := 0; it < c.CGIters; it++ {
			if err := s.spmv(p, q); err != nil {
				return CGResult{}, err
			}
			ctx.SetPhase("cg-solve")
			pq, err := s.dot(p, q)
			if err != nil {
				return CGResult{}, err
			}
			if pq == 0 {
				return CGResult{}, fmt.Errorf("npb: CG breakdown, p·q = 0 at iteration %d", it)
			}
			alpha := rho / pq
			for i := range z {
				z[i] += alpha * p[i]
				r[i] -= alpha * q[i]
			}
			if err := s.billVector(2); err != nil {
				return CGResult{}, err
			}
			rhoNew, err := s.dot(r, r)
			if err != nil {
				return CGResult{}, err
			}
			if rho == 0 {
				return CGResult{}, fmt.Errorf("npb: CG breakdown, r·r = 0 at iteration %d", it)
			}
			beta := rhoNew / rho
			rho = rhoNew
			for i := range p {
				p[i] = r[i] + beta*p[i]
			}
			if err := s.billVector(1); err != nil {
				return CGResult{}, err
			}
		}
		result.Residual = math.Sqrt(rho)

		// ζ = shift + 1/(x·z); x = z/‖z‖.
		ctx.SetPhase("cg-norm")
		xz, err := s.dot(x, z)
		if err != nil {
			return CGResult{}, err
		}
		zz, err := s.dot(z, z)
		if err != nil {
			return CGResult{}, err
		}
		norm := math.Sqrt(zz)
		if norm == 0 {
			return CGResult{}, fmt.Errorf("npb: CG produced the zero vector after outer iteration %d", outer)
		}
		for i := range x {
			x[i] = z[i] / norm
		}
		if err := s.billVector(1); err != nil {
			return CGResult{}, err
		}
		if xz == 0 {
			return CGResult{}, fmt.Errorf("npb: CG breakdown, x·z = 0 after outer iteration %d", outer)
		}
		result.Zeta = 1 / xz
	}
	return result, nil
}
