package npb

import (
	"fmt"
	"math"

	"pasp/internal/machine"
	"pasp/internal/mpi"
)

// MG is the NAS multigrid kernel: V-cycles of weighted-Jacobi smoothing,
// full-weighting restriction and linear prolongation solving the 7-point
// Poisson problem on an (m × m × m) vertex grid, m = 2^k − 1. Its
// communication profile is the hierarchical one the NAS suite contributes:
// large nearest-neighbour face exchanges at the fine levels shrink
// geometrically until the coarse levels are pure latency — and once a level
// has fewer than two planes per rank it is agglomerated (allgathered) and
// solved redundantly on every rank, trading computation for messages, as
// real MG codes do.
//
// The domain decomposes in slabs over z. The right-hand side is
// manufactured from an exact solution, so convergence is verifiable, and
// weighted Jacobi is order-independent, so results are invariant under the
// rank count to rounding.
type MG struct {
	// Size is the interior points per dimension; Size+1 must be a power of
	// two (vertex grids 2^k − 1).
	Size int
	// Cycles is the number of V-cycles.
	Cycles int
	// Pre and Post are the smoothing sweeps before and after coarse-grid
	// correction; 0 selects 2.
	Pre, Post int
	// Scale inflates the timed workload as a volume multiplier; ghost-face
	// message sizes grow with the surface, i.e. by Scale^(2/3), and the
	// agglomerated coarse levels (whole grids) by Scale. 0 means 1.
	Scale float64
}

// Per-point instruction mixes for one smoothing or residual sweep. MG
// streams three arrays through memory at the fine levels.
const (
	mgPointReg = 18.0
	mgPointL1  = 14.0
	mgPointL2  = 0.8
	mgPointMem = 0.8
	// Grid-transfer sweeps (restrict/prolong) cost about half a smooth.
	mgTransferFactor = 0.5
	// The weighted-Jacobi relaxation factor.
	mgOmega = 2.0 / 3.0
)

// MGResult is the kernel's verifiable outcome.
type MGResult struct {
	// Residual0 is the RMS residual before the first cycle.
	Residual0 float64
	// Residuals holds the RMS residual after each V-cycle.
	Residuals []float64
	// SolutionErr is the final RMS error against the manufactured solution.
	SolutionErr float64
}

func (m MG) pre() int {
	if m.Pre == 0 {
		return 2
	}
	return m.Pre
}

func (m MG) post() int {
	if m.Post == 0 {
		return 2
	}
	return m.Post
}

func (m MG) scale() float64 {
	if m.Scale <= 0 {
		return 1
	}
	return m.Scale
}

// Validate reports an error for unusable parameters on n ranks.
func (m MG) Validate(n int) error {
	if m.Size < 3 {
		return fmt.Errorf("npb: MG size %d, want ≥ 3", m.Size)
	}
	if s := m.Size + 1; s&(s-1) != 0 {
		return fmt.Errorf("npb: MG size %d is not 2^k−1", m.Size)
	}
	if m.Cycles < 1 {
		return fmt.Errorf("npb: MG cycles %d, want ≥ 1", m.Cycles)
	}
	if m.Pre < 0 || m.Post < 0 {
		return fmt.Errorf("npb: MG negative smoothing counts")
	}
	if m.Scale < 0 {
		return fmt.Errorf("npb: MG negative scale")
	}
	if m.Size/n < 2 {
		return fmt.Errorf("npb: MG size %d too small for %d ranks (needs ≥ 2 planes each)", m.Size, n)
	}
	return nil
}

// Run executes MG on the world.
func (m MG) Run(w mpi.World) (MGResult, *mpi.Result, error) {
	if err := m.Validate(w.N); err != nil {
		return MGResult{}, nil, err
	}
	var out MGResult
	res, err := mpi.Run(w, func(c *mpi.Ctx) error {
		r, err := m.rank(c)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = r
		}
		return nil
	})
	if err != nil {
		return MGResult{}, nil, err
	}
	return out, res, nil
}

// mgLevel is one grid level on one rank.
type mgLevel struct {
	// m is the interior points per dimension at this level.
	m int
	// zlo, zhi is the owned global plane range [zlo, zhi), 1-based. For
	// agglomerated levels it is the whole grid on every rank.
	zlo, zhi int
	// distributed reports whether this level still exchanges ghosts; once
	// false, every rank holds and smooths the full level redundantly.
	distributed bool
	// u, rhs and res are the solution, right-hand side and scratch
	// residual, stored as (lz+2) planes of (m+2)² with zero borders.
	u, rhs, res []float64
}

func (l *mgLevel) lz() int   { return l.zhi - l.zlo }
func (l *mgLevel) side() int { return l.m + 2 }

// idx maps (local plane p ∈ 0..lz+1, row j, column i) to the flat index.
func (l *mgLevel) idx(p, j, i int) int {
	s := l.side()
	return (p*s+j)*s + i
}

// mgState is one rank's multigrid hierarchy.
type mgState struct {
	mg     MG
	c      *mpi.Ctx
	levels []*mgLevel
	// ranges[li][r] is the plane range rank r owns at level li ({1, m+1}
	// everywhere once the level is agglomerated). It is computed from the
	// same deterministic chain on every rank.
	ranges [][][2]int
	scale  float64
	// faceScale sizes ghost-face messages: surface ∝ volume^(2/3).
	faceScale float64
	// aggBuf is the agglomeration pack scratch, reused across V-cycles
	// (Allgather snapshots its payload at deposit time).
	aggBuf []float64
}

// ownedCoarse maps a fine ownership range to the coarse range: coarse
// plane kc lives at fine plane 2kc, so the range is [⌈zlo/2⌉, ⌈zhi/2⌉).
func ownedCoarse(zlo, zhi int) (int, int) {
	return (zlo + 1) / 2, (zhi + 1) / 2
}

// buildLevels constructs the hierarchy down to the 1-point grid,
// agglomerating once any rank would own fewer than two planes.
func (s *mgState) buildLevels() {
	n, rank := s.c.Size(), s.c.Rank()
	m := s.mg.Size
	cur := make([][2]int, n)
	for r := 0; r < n; r++ {
		lo, hi := blockRange(m, n, r)
		cur[r] = [2]int{lo, hi}
	}
	distributed := n > 1
	for m >= 1 {
		if !distributed {
			for r := range cur {
				cur[r] = [2]int{1, m + 1}
			}
		}
		lv := &mgLevel{
			m:           m,
			zlo:         cur[rank][0],
			zhi:         cur[rank][1],
			distributed: distributed,
		}
		size := (lv.lz() + 2) * lv.side() * lv.side()
		lv.u = make([]float64, size)
		lv.rhs = make([]float64, size)
		lv.res = make([]float64, size)
		s.levels = append(s.levels, lv)
		s.ranges = append(s.ranges, append([][2]int(nil), cur...))
		if m == 1 {
			break
		}
		mc := (m+1)/2 - 1
		if distributed {
			next := make([][2]int, n)
			min := mc
			for r := 0; r < n; r++ {
				lo, hi := ownedCoarse(cur[r][0], cur[r][1])
				next[r] = [2]int{lo, hi}
				if hi-lo < min {
					min = hi - lo
				}
			}
			if min < 2 {
				distributed = false
			} else {
				cur = next
			}
		}
		m = mc
	}
}

// bill accounts sweeps×points of the per-point mix, scaled by factor.
func (s *mgState) bill(points float64, factor float64) error {
	p := points * factor * s.scale
	return s.c.Compute(machine.W(p*mgPointReg, p*mgPointL1, p*mgPointL2, p*mgPointMem))
}

// ownedPoints returns the number of interior points this rank owns at a
// level.
func (s *mgState) ownedPoints(l *mgLevel) float64 {
	return float64(l.lz()) * float64(l.m) * float64(l.m)
}

// exchange refreshes the ghost planes of array a at a distributed level.
// Sends toward the top rank run first (the top rank has no upward partner
// and anchors the chain), so rendezvous-sized planes cannot deadlock.
func (s *mgState) exchange(l *mgLevel, a []float64) error {
	if !l.distributed {
		return nil
	}
	s.c.SetPhase("mg-exchange")
	rank, n := s.c.Rank(), s.c.Size()
	planeLen := l.side() * l.side()
	vb := int(float64(planeLen*8) * s.faceScale)
	up, down := rank+1, rank-1
	// Upward pass: my top plane becomes the upper neighbour's bottom ghost.
	if up < n {
		if err := s.c.Send(up, 70, a[l.idx(l.lz(), 0, 0):l.idx(l.lz(), 0, 0)+planeLen], vb); err != nil {
			return err
		}
	}
	if down >= 0 {
		got, err := s.c.Recv(down, 70)
		if err != nil {
			return err
		}
		copy(a[l.idx(0, 0, 0):l.idx(0, 0, 0)+planeLen], got)
		s.c.Free(got)
	}
	// Downward pass: my bottom plane becomes the lower neighbour's top ghost.
	if down >= 0 {
		if err := s.c.Send(down, 71, a[l.idx(1, 0, 0):l.idx(1, 0, 0)+planeLen], vb); err != nil {
			return err
		}
	}
	if up < n {
		got, err := s.c.Recv(up, 71)
		if err != nil {
			return err
		}
		copy(a[l.idx(l.lz()+1, 0, 0):l.idx(l.lz()+1, 0, 0)+planeLen], got)
		s.c.Free(got)
	}
	return nil
}

// smooth runs one weighted-Jacobi sweep: u ← u + ω(rhs − A·u)/6.
func (s *mgState) smooth(l *mgLevel) error {
	if err := s.exchange(l, l.u); err != nil {
		return err
	}
	s.c.SetPhase("mg-smooth")
	if l.m == 1 && l.lz() == 1 {
		// The 1-point grid solves exactly in one step.
		l.u[l.idx(1, 1, 1)] = l.rhs[l.idx(1, 1, 1)] / 6
		return nil
	}
	// A·u is the 7-point operator 6·u[id] − u[id−side²] − u[id+side²] −
	// u[id−side] − u[id+side] − u[id−1] − u[id+1], subtracted left to right
	// in that order, with one index stepping along i. The order fixes the
	// bits; residual keeps the same one.
	sd := l.side()
	ss := sd * sd
	u, rhs, res := l.u, l.rhs, l.res
	for p := 1; p <= l.lz(); p++ {
		for j := 1; j <= l.m; j++ {
			id := l.idx(p, j, 1)
			for i := 1; i <= l.m; i++ {
				au := 6*u[id] -
					u[id-ss] - u[id+ss] -
					u[id-sd] - u[id+sd] -
					u[id-1] - u[id+1]
				res[id] = u[id] + mgOmega*(rhs[id]-au)/6
				id++
			}
		}
	}
	// Publish the sweep by swapping the buffers instead of copying the
	// interior back. Both buffers carry the level's zero borders (neither
	// sweep loop ever writes them), and ghost planes are refreshed by
	// exchange before any consumer reads them — on non-distributed levels
	// they are the never-written boundary zeros in both buffers — so the
	// observable values match the copy exactly.
	l.u, l.res = l.res, l.u
	return s.bill(s.ownedPoints(l), 1)
}

// residual computes res = rhs − A·u over the owned interior.
func (s *mgState) residual(l *mgLevel) error {
	if err := s.exchange(l, l.u); err != nil {
		return err
	}
	s.c.SetPhase("mg-residual")
	sd := l.side()
	ss := sd * sd
	u, rhs, res := l.u, l.rhs, l.res
	for p := 1; p <= l.lz(); p++ {
		for j := 1; j <= l.m; j++ {
			id := l.idx(p, j, 1)
			for i := 1; i <= l.m; i++ {
				au := 6*u[id] -
					u[id-ss] - u[id+ss] -
					u[id-sd] - u[id+sd] -
					u[id-1] - u[id+1]
				res[id] = rhs[id] - au
				id++
			}
		}
	}
	return s.bill(s.ownedPoints(l), 1)
}

// weights1D are the full-weighting stencil weights per dimension.
var weights1D = [3]float64{0.25, 0.5, 0.25}

// restrict transfers the fine residual into the coarse right-hand side
// (27-point full weighting) and zeroes the coarse solution. When the
// coarse level is agglomerated, the locally computed coarse planes are
// allgathered so every rank holds the full coarse problem.
func (s *mgState) restrict(fine, coarse *mgLevel) error {
	if err := s.residual(fine); err != nil {
		return err
	}
	if err := s.exchange(fine, fine.res); err != nil {
		return err
	}
	s.c.SetPhase("mg-restrict")
	for i := range coarse.u {
		coarse.u[i] = 0
		coarse.rhs[i] = 0
	}
	// My coarse planes derive from my fine planes: kc ∈ ownedCoarse(fine).
	clo, chi := ownedCoarse(fine.zlo, fine.zhi)
	for kc := clo; kc < chi; kc++ {
		pf := 2*kc - fine.zlo + 1 // fine local plane of the coarse point
		var pc int
		if coarse.distributed {
			pc = kc - coarse.zlo + 1
		} else {
			pc = kc
		}
		// Flattened 27-point gather: the weight products and the
		// accumulation order match the nested dz/dy/dx loops exactly
		// ((wz·wy)·wx, added in the same sequence), so the sums are
		// bit-identical to the indexed form.
		fs := fine.side()
		fss := fs * fs
		fres := fine.res
		for jc := 1; jc <= coarse.m; jc++ {
			for ic := 1; ic <= coarse.m; ic++ {
				base := fine.idx(pf, 2*jc, 2*ic)
				sum := 0.0
				for dz := -1; dz <= 1; dz++ {
					wz := weights1D[dz+1]
					zb := base + dz*fss
					for dy := -1; dy <= 1; dy++ {
						wzy := wz * weights1D[dy+1]
						rb := zb + dy*fs
						sum += wzy * weights1D[0] * fres[rb-1]
						sum += wzy * weights1D[1] * fres[rb]
						sum += wzy * weights1D[2] * fres[rb+1]
					}
				}
				// Galerkin-free rediscretization scaling: the 7-point
				// operator halves its h⁻² weight per level; with the
				// unscaled stencil the restriction carries a factor 4.
				coarse.rhs[coarse.idx(pc, jc, ic)] = 4 * sum
			}
		}
	}
	if err := s.bill(s.ownedPoints(fine), mgTransferFactor); err != nil {
		return err
	}
	if !coarse.distributed && s.c.Size() > 1 {
		return s.agglomerate(fine, coarse)
	}
	return nil
}

// agglomerate allgathers the per-rank coarse planes into the full coarse
// grid on every rank.
func (s *mgState) agglomerate(fine, coarse *mgLevel) error {
	s.c.SetPhase("mg-agglomerate")
	clo, chi := ownedCoarse(fine.zlo, fine.zhi)
	planeLen := coarse.side() * coarse.side()
	mine := s.aggBuf[:0]
	for kc := clo; kc < chi; kc++ {
		base := coarse.idx(kc, 0, 0)
		mine = append(mine, coarse.rhs[base:base+planeLen]...)
	}
	s.aggBuf = mine
	vb := int(float64(len(mine)*8)*s.scale) + 8
	parts, err := s.c.Allgather(mine, vb)
	if err != nil {
		return err
	}
	// Reassemble using each source rank's deterministic coarse range.
	fi := s.levelIndex(fine)
	for src, part := range parts {
		srcRange := s.ranges[fi][src]
		cslo, cshi := ownedCoarse(srcRange[0], srcRange[1])
		want := (cshi - cslo) * planeLen
		if len(part) != want {
			return fmt.Errorf("npb: MG agglomerate: rank %d sent %d values, want %d", src, len(part), want)
		}
		off := 0
		for kc := cslo; kc < cshi; kc++ {
			base := coarse.idx(kc, 0, 0)
			copy(coarse.rhs[base:base+planeLen], part[off:off+planeLen])
			off += planeLen
		}
		s.c.Free(part)
	}
	return nil
}

// levelIndex returns the position of lv in the hierarchy.
func (s *mgState) levelIndex(lv *mgLevel) int {
	for i, l := range s.levels {
		if l == lv {
			return i
		}
	}
	return -1
}

// prolong interpolates the coarse correction onto the fine solution.
func (s *mgState) prolong(coarse, fine *mgLevel) error {
	if err := s.exchange(coarse, coarse.u); err != nil {
		return err
	}
	s.c.SetPhase("mg-prolong")
	// Separable linear interpolation per dimension: interp1D(f) yields one
	// tap of weight 1 on even fine coordinates, two taps of weight ½ on odd
	// ones. A zero-weight tap was skipped by the original nested form, so
	// the tap lists below (length 1 or 2) visit exactly the taps it summed,
	// in the same z → y → x order with the same ((wz·wy)·wx)·u product
	// shape — the interpolated values are bit-identical.
	//
	// The y/x tap indices always land in [0, coarse.m] (fine.m = 2·coarse.m),
	// so only the z tap needs the out-of-range guard the old coarseAt
	// applied; an out-of-range plane contributes a literal zero through the
	// same multiply-add the in-range path runs.
	interp1D := func(f int) (t [2]int, w [2]float64, n int) {
		if f%2 == 0 {
			return [2]int{f / 2}, [2]float64{1}, 1
		}
		return [2]int{(f - 1) / 2, (f + 1) / 2}, [2]float64{0.5, 0.5}, 2
	}
	cu := coarse.u
	cs := coarse.side()
	fu := fine.u
	for kf := fine.zlo; kf < fine.zhi; kf++ {
		pf := kf - fine.zlo + 1
		zk, zw, nz := interp1D(kf)
		var pbase [2]int
		var pok [2]bool
		for zi := 0; zi < nz; zi++ {
			var pc int
			if coarse.distributed {
				pc = zk[zi] - coarse.zlo + 1
				pok[zi] = pc >= 0 && pc <= coarse.lz()+1
			} else {
				pc = zk[zi]
				pok[zi] = pc >= 0 && pc <= coarse.m+1
			}
			pbase[zi] = pc * cs * cs
		}
		for jf := 1; jf <= fine.m; jf++ {
			yj, yw, ny := interp1D(jf)
			// The (z, y) tap pairs — weight product, row base, plane
			// validity — are fixed across the row; flatten them once in
			// the same z → y order the nested loops visit.
			var pw [4]float64
			var prb [4]int
			var pvalid [4]bool
			np := 0
			for zi := 0; zi < nz; zi++ {
				for yi := 0; yi < ny; yi++ {
					pw[np] = zw[zi] * yw[yi]
					prb[np] = pbase[zi] + yj[yi]*cs
					pvalid[np] = pok[zi]
					np++
				}
			}
			fid := fine.idx(pf, jf, 1)
			for ifx := 1; ifx <= fine.m; ifx++ {
				var x0, x1 int
				var w0, w1 float64
				nx := 1
				if ifx&1 == 0 {
					x0, w0 = ifx>>1, 1
				} else {
					x0, w0 = (ifx-1)>>1, 0.5
					x1, w1 = x0+1, 0.5
					nx = 2
				}
				v := 0.0
				for pi := 0; pi < np; pi++ {
					wp := pw[pi]
					val0, val1 := 0.0, 0.0
					if pvalid[pi] {
						rb := prb[pi]
						val0 = cu[rb+x0]
						if nx == 2 {
							val1 = cu[rb+x1]
						}
					}
					v += wp * w0 * val0
					if nx == 2 {
						v += wp * w1 * val1
					}
				}
				fu[fid] += v
				fid++
			}
		}
	}
	return s.bill(s.ownedPoints(fine), mgTransferFactor)
}

// vcycle runs one V-cycle starting at hierarchy level li.
func (s *mgState) vcycle(li int) error {
	l := s.levels[li]
	if li == len(s.levels)-1 {
		// Coarsest level: smooth to convergence (it is tiny).
		sweeps := 8
		if l.m == 1 {
			sweeps = 1
		}
		for i := 0; i < sweeps; i++ {
			if err := s.smooth(l); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < s.mg.pre(); i++ {
		if err := s.smooth(l); err != nil {
			return err
		}
	}
	if err := s.restrict(l, s.levels[li+1]); err != nil {
		return err
	}
	if err := s.vcycle(li + 1); err != nil {
		return err
	}
	if err := s.prolong(s.levels[li+1], l); err != nil {
		return err
	}
	for i := 0; i < s.mg.post(); i++ {
		if err := s.smooth(l); err != nil {
			return err
		}
	}
	return nil
}

// rmsResidual returns the global RMS residual at the finest level.
func (s *mgState) rmsResidual() (float64, error) {
	l := s.levels[0]
	if err := s.residual(l); err != nil {
		return 0, err
	}
	s.c.SetPhase("mg-norm")
	local := 0.0
	for p := 1; p <= l.lz(); p++ {
		for j := 1; j <= l.m; j++ {
			for i := 1; i <= l.m; i++ {
				v := l.res[l.idx(p, j, i)]
				local += v * v
			}
		}
	}
	sum, err := s.c.Allreduce([]float64{local}, mpi.Sum, 8)
	if err != nil {
		return 0, err
	}
	total := float64(l.m) * float64(l.m) * float64(l.m)
	return math.Sqrt(sum[0] / total), nil
}

func (m MG) rank(c *mpi.Ctx) (MGResult, error) {
	s := &mgState{mg: m, c: c, scale: m.scale()}
	s.faceScale = math.Pow(s.scale, 2.0/3.0)
	s.buildLevels()

	// Manufactured problem on the finest level: rhs = A·u* with
	// u* = 64·xyz(1−x)(1−y)(1−z), zero on the boundary.
	c.SetPhase("mg-setup")
	fin := s.levels[0]
	//palint:ignore floatdiv -- m+1 >= 1 for any non-negative grid size, so the mesh spacing denominator is structurally positive
	h := 1.0 / float64(fin.m+1)
	exact := func(k, j, i int) float64 {
		x, y, z := float64(i)*h, float64(j)*h, float64(k)*h
		return 64 * x * (1 - x) * y * (1 - y) * z * (1 - z)
	}
	for k := fin.zlo; k < fin.zhi; k++ {
		p := k - fin.zlo + 1
		for j := 1; j <= fin.m; j++ {
			for i := 1; i <= fin.m; i++ {
				fin.rhs[fin.idx(p, j, i)] = 6*exact(k, j, i) -
					exact(k-1, j, i) - exact(k+1, j, i) -
					exact(k, j-1, i) - exact(k, j+1, i) -
					exact(k, j, i-1) - exact(k, j, i+1)
			}
		}
	}
	if err := s.bill(s.ownedPoints(fin), 1); err != nil {
		return MGResult{}, err
	}

	var out MGResult
	r0, err := s.rmsResidual()
	if err != nil {
		return MGResult{}, err
	}
	out.Residual0 = r0
	for cycle := 0; cycle < m.Cycles; cycle++ {
		if err := s.vcycle(0); err != nil {
			return MGResult{}, err
		}
		r, err := s.rmsResidual()
		if err != nil {
			return MGResult{}, err
		}
		out.Residuals = append(out.Residuals, r)
	}

	// Final solution error.
	local := 0.0
	for k := fin.zlo; k < fin.zhi; k++ {
		p := k - fin.zlo + 1
		for j := 1; j <= fin.m; j++ {
			for i := 1; i <= fin.m; i++ {
				d := fin.u[fin.idx(p, j, i)] - exact(k, j, i)
				local += d * d
			}
		}
	}
	sum, err := c.Allreduce([]float64{local}, mpi.Sum, 8)
	if err != nil {
		return MGResult{}, err
	}
	total := float64(fin.m) * float64(fin.m) * float64(fin.m)
	out.SolutionErr = math.Sqrt(sum[0] / total)
	return out, nil
}
