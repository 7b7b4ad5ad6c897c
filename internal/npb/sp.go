package npb

import (
	"fmt"

	"pasp/internal/machine"
	"pasp/internal/mpi"
)

// SP is the NAS scalar-ADI application class: implicit time steps of the
// 3-D heat equation by alternating-direction factorization, each step
// solving independent tridiagonal systems along x, y and z (the Thomas
// algorithm). With the domain in slabs over z, the x and y line solves are
// local, but the z solve's forward elimination and back substitution are
// inherently serial across ranks; the kernel pipelines them in column
// chunks, so rank r works on chunk c while rank r−1 already forwards chunk
// c+1 — a coarser-grained wavefront than LU's plane sweeps and a third
// distinct communication pattern in the suite.
//
// (NPB's SP solves five coupled pentadiagonal systems; the reproduction
// solves one scalar tridiagonal system per line with the same sweep and
// communication structure, and carries the five-component cost in the
// timed workload and message sizes, as LU does.)
type SP struct {
	// N is the interior grid points per side.
	N int
	// Steps is the number of ADI time steps.
	Steps int
	// Sigma is the implicit step coefficient σ = κ·dt/h²; 0 selects 0.5.
	Sigma float64
	// Chunks is the pipeline granularity of the z solve: the n² lines are
	// processed in this many batches. 0 selects 8.
	Chunks int
	// Ncomp is the component multiplier for the timed workload and message
	// sizes (NPB carries 5 solution variables). 0 selects 5.
	Ncomp int
}

// Per-cell instruction mix for one tridiagonal sweep over one axis
// (forward elimination + back substitution, ~9 flops per unknown), carrying
// the Ncomp multiplier at billing time.
const (
	spCellReg = 9.0
	spCellL1  = 7.0
	spCellL2  = 0.4
	spCellMem = 0.5
)

// SP message tags.
const (
	spTagForward = 90
	spTagBack    = 91
)

// SPResult is the kernel's verifiable outcome.
type SPResult struct {
	// Heat0 and Heat are the field sums before and after the steps; with
	// zero boundaries, heat decays monotonically toward zero.
	Heat0, Heat float64
	// Checksum is the final field's sampled checksum (rank invariant).
	Checksum float64
}

func (s SP) sigma() float64 {
	if s.Sigma == 0 {
		return 0.5
	}
	return s.Sigma
}

func (s SP) chunks() int {
	if s.Chunks == 0 {
		return 8
	}
	return s.Chunks
}

func (s SP) ncomp() int {
	if s.Ncomp == 0 {
		return 5
	}
	return s.Ncomp
}

// Validate reports an error for unusable parameters on n ranks.
func (s SP) Validate(n int) error {
	if s.N < 4 {
		return fmt.Errorf("npb: SP grid %d, want ≥ 4", s.N)
	}
	if s.Steps < 1 {
		return fmt.Errorf("npb: SP steps %d, want ≥ 1", s.Steps)
	}
	if s.sigma() <= 0 {
		return fmt.Errorf("npb: SP sigma %g, want > 0", s.sigma())
	}
	if s.chunks() < 1 || s.chunks() > s.N*s.N {
		return fmt.Errorf("npb: SP chunks %d outside [1, N²]", s.chunks())
	}
	if s.ncomp() < 1 {
		return fmt.Errorf("npb: SP ncomp %d, want ≥ 1", s.Ncomp)
	}
	if s.N/n < 1 {
		return fmt.Errorf("npb: SP grid %d too small for %d ranks", s.N, n)
	}
	return nil
}

// Run executes SP on the world.
func (s SP) Run(w mpi.World) (SPResult, *mpi.Result, error) {
	if err := s.Validate(w.N); err != nil {
		return SPResult{}, nil, err
	}
	var out SPResult
	res, err := mpi.Run(w, func(c *mpi.Ctx) error {
		r, err := s.rank(c)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = r
		}
		return nil
	})
	if err != nil {
		return SPResult{}, nil, err
	}
	return out, res, nil
}

// spState is one rank's slab: planes [zlo, zhi) of an n×n×n field.
type spState struct {
	sp       SP
	c        *mpi.Ctx
	n        int
	zlo, zhi int
	u        []float64 // lz × n × n, interior only (boundaries are zero)
	sigma    float64
}

func (st *spState) lz() int { return st.zhi - st.zlo }

func (st *spState) idx(p, j, i int) int { return (p*st.n+j)*st.n + i }

// billCells accounts cells tridiagonal-sweep cell updates.
func (st *spState) billCells(cells float64) error {
	k := cells * float64(st.sp.ncomp())
	return st.c.Compute(machine.W(k*spCellReg, k*spCellL1, k*spCellL2, k*spCellMem))
}

// solveLocalLines solves (1+2σ)x_i − σx_{i−1} − σx_{i+1} = rhs_i for every
// line along a local axis. lines indexes the orthogonal plane; stride walks
// along the axis; length is the line length. The solve happens in place.
func (st *spState) solveLocalLines(a []float64, base func(line int) int, stride, length, lines int) {
	sig := st.sigma
	diag := 1 + 2*sig
	cp := make([]float64, length)
	for ln := 0; ln < lines; ln++ {
		b0 := base(ln)
		// Thomas forward elimination.
		//palint:ignore floatdiv -- diag = 1+2σ >= 1: the system is diagonally dominant for any σ >= 0
		cPrev := -sig / diag
		a[b0] /= diag
		cp[0] = cPrev
		for i := 1; i < length; i++ {
			id := b0 + i*stride
			m := diag - (-sig)*cp[i-1]
			cp[i] = -sig / m
			a[id] = (a[id] + sig*a[id-stride]) / m
		}
		// Back substitution.
		for i := length - 2; i >= 0; i-- {
			id := b0 + i*stride
			a[id] -= cp[i] * a[id+stride]
		}
	}
}

// solveZ performs the distributed tridiagonal solve along z with chunked
// pipelining: forward elimination flows from rank 0 upward, back
// substitution flows back down, one message of chunk-width boundary values
// per direction per chunk.
func (st *spState) solveZ(a []float64) error {
	n, lz := st.n, st.lz()
	nranks, rank := st.c.Size(), st.c.Rank()
	sig := st.sigma
	diag := 1 + 2*sig
	total := n * n
	nchunks := st.sp.chunks()
	if nchunks > total {
		nchunks = total
	}
	// cp holds the c' coefficients for every line and local plane.
	cp := make([]float64, lz*total)
	ncomp := st.sp.ncomp()

	for ch := 0; ch < nchunks; ch++ {
		lo := total * ch / nchunks
		hi := total * (ch + 1) / nchunks
		width := hi - lo
		// Forward elimination: receive (c', d') of the plane below.
		prevC := make([]float64, width)
		prevD := make([]float64, width)
		// Unconditional: every rank walks the same phase sequence even when
		// its rank skips the transfer, or per-(rank, phase) attribution
		// diverges (TestSPPhaseSequenceUniform).
		st.c.SetPhase("sp-z-forward")
		if rank > 0 {
			got, err := st.c.Recv(rank-1, spTagForward)
			if err != nil {
				return err
			}
			copy(prevC, got[:width])
			copy(prevD, got[width:2*width])
		} else {
			for i := range prevC {
				prevC[i] = 0
				prevD[i] = 0
			}
		}
		st.c.SetPhase("sp-solve-z")
		first := rank == 0
		for p := 0; p < lz; p++ {
			for q := lo; q < hi; q++ {
				id := p*total + q
				var m float64
				if p == 0 && first {
					m = diag
				} else {
					var cPrev float64
					if p == 0 {
						cPrev = prevC[q-lo]
					} else {
						cPrev = cp[(p-1)*total+q]
					}
					m = diag - (-sig)*cPrev
				}
				//palint:ignore floatdiv -- m >= 1 by diagonal dominance: diag = 1+2σ and the Thomas recurrence keeps |c'| < 1
				cp[id] = -sig / m
				var dPrev float64
				if p == 0 {
					if !first {
						dPrev = prevD[q-lo]
					}
				} else {
					dPrev = a[(p-1)*total+q]
				}
				//palint:ignore floatdiv -- m >= 1 by diagonal dominance: diag = 1+2σ and the Thomas recurrence keeps |c'| < 1
				a[id] = (a[id] + sig*dPrev) / m
			}
		}
		if err := st.billCells(float64(width * lz)); err != nil {
			return err
		}
		st.c.SetPhase("sp-z-forward")
		if rank < nranks-1 {
			msg := make([]float64, 2*width)
			for q := lo; q < hi; q++ {
				msg[q-lo] = cp[(lz-1)*total+q]
				msg[width+q-lo] = a[(lz-1)*total+q]
			}
			if err := st.c.Send(rank+1, spTagForward, msg, 2*width*8*ncomp); err != nil {
				return err
			}
		}
	}

	// Back substitution: top rank finishes first, boundary flows downward.
	for ch := 0; ch < nchunks; ch++ {
		lo := total * ch / nchunks
		hi := total * (ch + 1) / nchunks
		width := hi - lo
		upper := make([]float64, width) // x of the plane above (zero beyond the top)
		st.c.SetPhase("sp-z-back")
		if rank < nranks-1 {
			got, err := st.c.Recv(rank+1, spTagBack)
			if err != nil {
				return err
			}
			copy(upper, got[:width])
		}
		st.c.SetPhase("sp-solve-z")
		for p := lz - 1; p >= 0; p-- {
			for q := lo; q < hi; q++ {
				id := p*total + q
				var next float64
				if p == lz-1 {
					next = upper[q-lo]
				} else {
					next = a[(p+1)*total+q]
				}
				a[id] -= cp[id] * next
			}
		}
		if err := st.billCells(float64(width*lz) * 0.5); err != nil {
			return err
		}
		st.c.SetPhase("sp-z-back")
		if rank > 0 {
			msg := make([]float64, width)
			for q := lo; q < hi; q++ {
				msg[q-lo] = a[q] // plane p = 0
			}
			if err := st.c.Send(rank-1, spTagBack, msg, width*8*ncomp); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s SP) rank(c *mpi.Ctx) (SPResult, error) {
	n := s.N
	st := &spState{sp: s, c: c, n: n, sigma: s.sigma()}
	st.zlo, st.zhi = blockRange(n, c.Size(), c.Rank())
	st.zlo-- // blockRange is 1-based; convert to 0-based plane indices
	st.zhi--
	lz := st.lz()
	st.u = make([]float64, lz*n*n)

	// Initial condition from the NPB generator, seeded per global plane.
	c.SetPhase("sp-init")
	for p := 0; p < lz; p++ {
		rng := newRandlc(uint64((st.zlo + p) * n * n))
		for i := p * n * n; i < (p+1)*n*n; i++ {
			st.u[i] = rng.next()
		}
	}
	if err := st.billCells(float64(lz * n * n)); err != nil {
		return SPResult{}, err
	}

	heat := func() (float64, error) {
		local := 0.0
		for _, v := range st.u {
			local += v
		}
		sum, err := c.Allreduce([]float64{local}, mpi.Sum, 8)
		if err != nil {
			return 0, err
		}
		return sum[0], nil
	}
	var out SPResult
	h0, err := heat()
	if err != nil {
		return SPResult{}, err
	}
	out.Heat0 = h0

	for step := 0; step < s.Steps; step++ {
		// x sweep: lines along i (stride 1) for every (p, j).
		c.SetPhase("sp-solve-x")
		st.solveLocalLines(st.u, func(ln int) int { return ln * n }, 1, n, lz*n)
		if err := st.billCells(float64(lz * n * n)); err != nil {
			return SPResult{}, err
		}
		// y sweep: lines along j (stride n) for every (p, i).
		c.SetPhase("sp-solve-y")
		st.solveLocalLines(st.u, func(ln int) int {
			p, i := ln/n, ln%n
			return p*n*n + i
		}, n, n, lz*n)
		if err := st.billCells(float64(lz * n * n)); err != nil {
			return SPResult{}, err
		}
		// z sweep: distributed pipelined Thomas.
		if err := st.solveZ(st.u); err != nil {
			return SPResult{}, err
		}
	}

	hN, err := heat()
	if err != nil {
		return SPResult{}, err
	}
	out.Heat = hN

	// Checksum: sample fixed global points, as FT does.
	c.SetPhase("sp-checksum")
	local := 0.0
	for j := 1; j <= 512; j++ {
		q := (3 * j) % n
		r := (7 * j) % n
		z := j % n
		if z >= st.zlo && z < st.zhi {
			local += st.u[st.idx(z-st.zlo, r, q)]
		}
	}
	sum, err := c.Allreduce([]float64{local}, mpi.Sum, 8)
	if err != nil {
		return SPResult{}, err
	}
	out.Checksum = sum[0]
	return out, nil
}
