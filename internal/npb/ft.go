package npb

import (
	"fmt"
	"math"
	"sync"

	"pasp/internal/machine"
	"pasp/internal/mpi"
)

// FT is the NAS 3-D FFT kernel: it solves a partial differential equation
// spectrally, by forward-transforming the initial state once and then, each
// iteration, evolving it in frequency space and inverse-transforming to
// compute a checksum. The inverse 3-D FFT on a slab decomposition requires
// a full personalized all-to-all transpose per iteration, which makes FT
// the paper's communication-bound extreme.
//
// The array is decomposed in slabs over z for the x/y transforms and over y
// for the z transform; the transpose between the two layouts is the
// alltoall. Checksums are computed in physical space and are invariant (to
// rounding) under the rank count, which verifies the whole distributed
// transform.
type FT struct {
	// Nx, Ny, Nz are the real grid dimensions (powers of two). Ny and Nz
	// must be divisible by the rank count.
	Nx, Ny, Nz int
	// Iters is the number of evolve/inverse-FFT/checksum iterations.
	Iters int
	// Scale inflates the timed workload and message sizes, so a reduced
	// grid is billed as a full NAS class of Scale× the volume. 0 means 1.
	Scale float64
}

// Instruction-mix constants per point (multiplied by Scale).
const (
	ftFlopRegFrac = 0.6  // share of FFT arithmetic that is register-bound
	ftFlopL1Frac  = 0.4  // share that hits L1 (in-cache butterflies)
	ftMemContig   = 0.25 // OFF-chip instructions per point, contiguous sweep (16B/64B line)
	ftMemStride   = 0.6  // OFF-chip instructions per point, strided column sweep
	ftL2Stride    = 0.2  // L2 instructions per point, strided column sweep
	ftEvolveFlops = 8    // evolve: complex multiply + factor update per point
	ftEvolveMem   = 0.5  // evolve: two streaming arrays
	ftTransL1     = 2.0  // transpose pack+unpack per point
	ftTransMem    = 0.5  // transpose: streaming through both buffers
)

// FTResult is the kernel's verifiable outcome: one complex checksum per
// iteration.
type FTResult struct {
	Checksums []complex128
}

// scale returns the workload multiplier, defaulting to 1.
func (f FT) scale() float64 {
	if f.Scale <= 0 {
		return 1
	}
	return f.Scale
}

// Validate reports an error for unusable parameters on n ranks.
func (f FT) Validate(n int) error {
	for _, d := range []struct {
		name string
		v    int
	}{{"Nx", f.Nx}, {"Ny", f.Ny}, {"Nz", f.Nz}} {
		if err := checkPow2(d.name, d.v); err != nil {
			return err
		}
	}
	if f.Iters < 1 {
		return fmt.Errorf("npb: FT Iters = %d, want ≥ 1", f.Iters)
	}
	if f.Ny%n != 0 || f.Nz%n != 0 {
		return fmt.Errorf("npb: FT grid %dx%dx%d not divisible over %d ranks", f.Nx, f.Ny, f.Nz, n)
	}
	if f.Scale < 0 {
		return fmt.Errorf("npb: FT negative Scale")
	}
	return nil
}

// Run executes FT on the world.
func (f FT) Run(w mpi.World) (FTResult, *mpi.Result, error) {
	if err := f.Validate(w.N); err != nil {
		return FTResult{}, nil, err
	}
	var out FTResult
	res, err := mpi.Run(w, func(c *mpi.Ctx) error {
		r, err := f.rank(c)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = r
		}
		return nil
	})
	if err != nil {
		return FTResult{}, nil, err
	}
	return out, res, nil
}

// ftState carries a rank's working data.
type ftState struct {
	f          FT
	c          *mpi.Ctx
	n, rank    int
	lz, ly     int
	planX      *fftPlan
	planY      *fftPlan
	planZ      *fftPlan
	scale      float64
	partBytes  int // real bytes per alltoall pair
	vPartBytes int // timed bytes per alltoall pair

	// Per-iteration scratch, reused across the Iters inverse transforms.
	// The forward path keeps allocating fresh arrays: its output persists
	// for the whole run as the frequency-space field.
	scratchA []complex128 // inverse: working copy of the evolved field
	scratchB []complex128 // inverse: transpose target, returned to rank()
	col      []complex128 // fftColumns: one strided column
	parts    [][]float64  // transpose: per-destination pack buffers
}

func (f FT) rank(c *mpi.Ctx) (FTResult, error) {
	n, rank := c.Size(), c.Rank()
	st := &ftState{f: f, c: c, n: n, rank: rank, lz: f.Nz / n, ly: f.Ny / n, scale: f.scale()}
	var err error
	if st.planX, err = getFFTPlan(f.Nx); err != nil {
		return FTResult{}, err
	}
	if st.planY, err = getFFTPlan(f.Ny); err != nil {
		return FTResult{}, err
	}
	if st.planZ, err = getFFTPlan(f.Nz); err != nil {
		return FTResult{}, err
	}
	st.partBytes = st.lz * st.ly * f.Nx * 16
	st.vPartBytes = int(float64(st.partBytes) * st.scale)

	// Initial state in z-slab layout, seeded per global plane so contents
	// are independent of the decomposition.
	c.SetPhase("ft-init")
	u := make([]complex128, st.lz*f.Ny*f.Nx)
	for zl := 0; zl < st.lz; zl++ {
		z := rank*st.lz + zl
		rng := newRandlc(uint64(2 * z * f.Nx * f.Ny))
		for i := zl * f.Ny * f.Nx; i < (zl+1)*f.Ny*f.Nx; i++ {
			re := rng.next()
			im := rng.next()
			u[i] = complex(re, im)
		}
	}
	if err := st.billSweep(1, ftMemContig, 0); err != nil { // init sweep
		return FTResult{}, err
	}

	// Forward 3-D FFT once: z-slab → y-slab frequency layout.
	uhat, err := st.forward(u)
	if err != nil {
		return FTResult{}, err
	}

	// Per-point evolution base factor exp(−4π²α·k̄²) in y-slab layout.
	c.SetPhase("ft-evolve")
	base := st.evolveBase()
	factor := make([]float64, len(uhat))
	for i := range factor {
		factor[i] = 1
	}
	work := make([]complex128, len(uhat))

	var result FTResult
	for it := 1; it <= f.Iters; it++ {
		c.SetPhase("ft-evolve")
		for i := range work {
			factor[i] *= base[i]
			work[i] = uhat[i] * complex(factor[i], 0)
		}
		flops := float64(len(work)) * ftEvolveFlops
		if err := st.bill(flops*ftFlopRegFrac, flops*ftFlopL1Frac, 0, float64(len(work))*ftEvolveMem); err != nil {
			return FTResult{}, err
		}

		x, err := st.inverse(work)
		if err != nil {
			return FTResult{}, err
		}

		c.SetPhase("ft-checksum")
		sum, err := st.checksum(x)
		if err != nil {
			return FTResult{}, err
		}
		result.Checksums = append(result.Checksums, sum)
	}
	return result, nil
}

// fold maps a frequency index to its signed value: k for k ≤ n/2, k−n
// otherwise.
func fold(k, n int) int {
	if k > n/2 {
		return k - n
	}
	return k
}

// ftAlpha is the diffusion constant of FT's spectral PDE.
const ftAlpha = 1e-6

// evolveBaseKey identifies one rank's evolution-factor table: the table
// depends only on the grid shape and the rank's y-slab.
type evolveBaseKey struct{ nx, ny, nz, n, rank int }

// evolveBaseCache memoizes the exp tables across grid cells of a campaign:
// every (N, MHz) cell at the same N recomputed identical tables. Entries are
// read-only once stored; math.Exp is deterministic, so whichever rank
// populates an entry produces bit-identical values.
var evolveBaseCache sync.Map // evolveBaseKey -> []float64

// evolveBase returns the rank's per-point factor exp(−4π²α·k̄²) in y-slab
// layout, computing and caching it on first use.
func (s *ftState) evolveBase() []float64 {
	f := s.f
	key := evolveBaseKey{nx: f.Nx, ny: f.Ny, nz: f.Nz, n: s.n, rank: s.rank}
	if v, ok := evolveBaseCache.Load(key); ok {
		return v.([]float64)
	}
	base := make([]float64, s.ly*f.Nz*f.Nx)
	for yl := 0; yl < s.ly; yl++ {
		ky := fold(s.rank*s.ly+yl, f.Ny)
		for z := 0; z < f.Nz; z++ {
			kz := fold(z, f.Nz)
			row := (yl*f.Nz + z) * f.Nx
			for x := 0; x < f.Nx; x++ {
				kx := fold(x, f.Nx)
				k2 := float64(kx*kx + ky*ky + kz*kz)
				base[row+x] = math.Exp(-4 * math.Pi * math.Pi * ftAlpha * k2)
			}
		}
	}
	actual, _ := evolveBaseCache.LoadOrStore(key, base)
	return actual.([]float64)
}

// bill accounts an instruction mix, inflated by the class scale.
func (s *ftState) bill(reg, l1, l2, mem float64) error {
	return s.c.Compute(machine.W(reg*s.scale, l1*s.scale, l2*s.scale, mem*s.scale))
}

// billSweep accounts one pass over the local array with the given per-point
// OFF-chip and L2 costs plus flopsPerPoint of arithmetic.
func (s *ftState) billSweep(flopsPerPoint, memPerPoint, l2PerPoint float64) error {
	pts := float64(s.lz * s.f.Ny * s.f.Nx)
	return s.bill(pts*flopsPerPoint*ftFlopRegFrac, pts*flopsPerPoint*ftFlopL1Frac, pts*l2PerPoint, pts*memPerPoint)
}

// fftAxisX transforms every contiguous x-row of a z-slab array in place.
func (s *ftState) fftAxisX(a []complex128, dir fftDir) error {
	nx := s.f.Nx
	for off := 0; off+nx <= len(a); off += nx {
		if err := s.planX.transform(a[off:off+nx], dir); err != nil {
			return err
		}
	}
	flops := fftFlopsPerPoint(nx)
	pts := float64(len(a))
	return s.bill(pts*flops*ftFlopRegFrac, pts*flops*ftFlopL1Frac, 0, pts*ftMemContig)
}

// fftColumns transforms columns of length clen and stride nx, for an array
// organized as nslabs blocks of clen×nx points.
func (s *ftState) fftColumns(a []complex128, plan *fftPlan, nslabs, clen int, dir fftDir) error {
	nx := s.f.Nx
	if cap(s.col) < clen {
		s.col = make([]complex128, clen)
	}
	col := s.col[:clen]
	for sl := 0; sl < nslabs; sl++ {
		blk := sl * clen * nx
		for x := 0; x < nx; x++ {
			for k := 0; k < clen; k++ {
				col[k] = a[blk+k*nx+x]
			}
			if err := plan.transform(col, dir); err != nil {
				return err
			}
			for k := 0; k < clen; k++ {
				a[blk+k*nx+x] = col[k]
			}
		}
	}
	flops := fftFlopsPerPoint(clen)
	pts := float64(len(a))
	return s.bill(pts*flops*ftFlopRegFrac, pts*flops*ftFlopL1Frac, pts*ftL2Stride, pts*ftMemStride)
}

// transposeZY exchanges a z-slab array (zl, y, x) into a y-slab array
// (yl, z, x) via alltoall.
func (s *ftState) transposeZY(a []complex128) ([]complex128, error) {
	f, n := s.f, s.n
	parts := s.packParts()
	for d := 0; d < n; d++ {
		part := parts[d][:0]
		for zl := 0; zl < s.lz; zl++ {
			for y := d * s.ly; y < (d+1)*s.ly; y++ {
				row := (zl*f.Ny + y) * f.Nx
				for x := 0; x < f.Nx; x++ {
					v := a[row+x]
					part = append(part, real(v), imag(v))
				}
			}
		}
		parts[d] = part
	}
	if err := s.billTranspose(); err != nil {
		return nil, err
	}
	s.c.SetPhase("ft-alltoall")
	recv, err := s.c.Alltoall(parts, s.vPartBytes)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, s.ly*f.Nz*f.Nx)
	for src := 0; src < n; src++ {
		blk := recv[src] // layout (zl_src, yl, x)
		i := 0
		for zl := 0; zl < s.lz; zl++ {
			z := src*s.lz + zl
			for yl := 0; yl < s.ly; yl++ {
				row := (yl*f.Nz + z) * f.Nx
				for x := 0; x < f.Nx; x++ {
					out[row+x] = complex(blk[i], blk[i+1])
					i += 2
				}
			}
		}
		s.c.Free(blk)
	}
	return out, nil
}

// packParts returns the reusable per-destination pack buffers. Reuse is safe
// because Alltoall snapshots every part at deposit time.
func (s *ftState) packParts() [][]float64 {
	if s.parts == nil {
		s.parts = make([][]float64, s.n)
	}
	return s.parts
}

// transposeYZ is the inverse exchange: y-slab (yl, z, x) → z-slab (zl, y, x).
func (s *ftState) transposeYZ(a []complex128) ([]complex128, error) {
	f, n := s.f, s.n
	parts := s.packParts()
	for d := 0; d < n; d++ {
		part := parts[d][:0]
		for yl := 0; yl < s.ly; yl++ {
			for z := d * s.lz; z < (d+1)*s.lz; z++ {
				row := (yl*f.Nz + z) * f.Nx
				for x := 0; x < f.Nx; x++ {
					v := a[row+x]
					part = append(part, real(v), imag(v))
				}
			}
		}
		parts[d] = part
	}
	if err := s.billTranspose(); err != nil {
		return nil, err
	}
	s.c.SetPhase("ft-alltoall")
	recv, err := s.c.Alltoall(parts, s.vPartBytes)
	if err != nil {
		return nil, err
	}
	// transposeYZ only runs on the per-iteration inverse path, so its output
	// can live in rank-local scratch: the previous iteration's result is
	// dead by the time the next iteration overwrites it.
	if s.scratchB == nil {
		s.scratchB = make([]complex128, s.lz*f.Ny*f.Nx)
	}
	out := s.scratchB
	for src := 0; src < n; src++ {
		blk := recv[src] // layout (yl_src, zl, x)
		i := 0
		for yl := 0; yl < s.ly; yl++ {
			y := src*s.ly + yl
			for zl := 0; zl < s.lz; zl++ {
				row := (zl*f.Ny + y) * f.Nx
				for x := 0; x < f.Nx; x++ {
					out[row+x] = complex(blk[i], blk[i+1])
					i += 2
				}
			}
		}
		s.c.Free(blk)
	}
	return out, nil
}

// billTranspose accounts the pack/unpack sweeps around an alltoall.
func (s *ftState) billTranspose() error {
	s.c.SetPhase("ft-transpose")
	pts := float64(s.lz * s.f.Ny * s.f.Nx)
	return s.bill(0, pts*ftTransL1, 0, pts*ftTransMem)
}

// forward computes the forward 3-D FFT: z-slab physical → y-slab frequency.
func (s *ftState) forward(u []complex128) ([]complex128, error) {
	s.c.SetPhase("ft-fft-x")
	a := append([]complex128(nil), u...)
	if err := s.fftAxisX(a, fftForward); err != nil {
		return nil, err
	}
	s.c.SetPhase("ft-fft-y")
	if err := s.fftColumns(a, s.planY, s.lz, s.f.Ny, fftForward); err != nil {
		return nil, err
	}
	b, err := s.transposeZY(a)
	if err != nil {
		return nil, err
	}
	s.c.SetPhase("ft-fft-z")
	if err := s.fftColumns(b, s.planZ, s.ly, s.f.Nz, fftForward); err != nil {
		return nil, err
	}
	return b, nil
}

// inverse computes the inverse 3-D FFT: y-slab frequency → z-slab physical.
func (s *ftState) inverse(w []complex128) ([]complex128, error) {
	s.c.SetPhase("ft-fft-z")
	if s.scratchA == nil {
		s.scratchA = make([]complex128, len(w))
	}
	a := s.scratchA[:len(w)]
	copy(a, w)
	if err := s.fftColumns(a, s.planZ, s.ly, s.f.Nz, fftInverse); err != nil {
		return nil, err
	}
	b, err := s.transposeYZ(a)
	if err != nil {
		return nil, err
	}
	s.c.SetPhase("ft-fft-y")
	if err := s.fftColumns(b, s.planY, s.lz, s.f.Ny, fftInverse); err != nil {
		return nil, err
	}
	s.c.SetPhase("ft-fft-x")
	if err := s.fftAxisX(b, fftInverse); err != nil {
		return nil, err
	}
	return b, nil
}

// checksum samples 1024 fixed global points of the physical-space z-slab
// array and sums them across ranks.
func (s *ftState) checksum(a []complex128) (complex128, error) {
	f := s.f
	var re, im float64
	for j := 1; j <= 1024; j++ {
		q := (5 * j) % f.Nx
		r := (3 * j) % f.Ny
		z := j % f.Nz
		owner := z / s.lz
		if owner != s.rank {
			continue
		}
		v := a[((z-s.rank*s.lz)*f.Ny+r)*f.Nx+q]
		re += real(v)
		im += imag(v)
	}
	sum, err := s.c.Allreduce([]float64{re, im}, mpi.Sum, 16)
	if err != nil {
		return 0, err
	}
	return complex(sum[0], sum[1]), nil
}
