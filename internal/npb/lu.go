package npb

import (
	"fmt"
	"math"

	"pasp/internal/machine"
	"pasp/internal/mpi"
)

// LU is the NAS lower-upper solver kernel: a symmetric successive
// over-relaxation (SSOR) iteration with the wavefront dependency structure
// and communication pattern of NPB LU. The domain is decomposed in 2-D over
// (x, y); each triangular sweep pipelines over z-planes, exchanging one
// boundary row/column per plane with the downstream neighbours — the small
// 155/310-double messages of the paper's Table 6. LU therefore has limited
// parallelism (pipeline fill) and a regular, fine-grained communication
// pattern: the paper's fine-grain parameterization case study.
//
// The solved system is the 7-point Laplacian with a manufactured right-hand
// side, so the discrete solution is known exactly and convergence is
// verifiable at every rank count.
type LU struct {
	// N is the number of interior grid points per side. NPB class A uses
	// 62; the value need not divide the rank grid evenly.
	N int
	// Iters is the number of SSOR iterations.
	Iters int
	// Omega is the relaxation factor in (0, 2); 0 selects the NPB default 1.2.
	Omega float64
	// Ncomp is the number of solution components each grid cell carries in
	// the timed workload and message sizes. The real arithmetic solves one
	// scalar component; NPB carries 5 flow variables, so the default is 5.
	Ncomp int
	// TrackResiduals records the RMS residual after every SSOR iteration
	// (NPB LU computes it each iteration too); it adds the corresponding
	// ghost exchanges and norm reductions to the run.
	TrackResiduals bool
}

// Per-cell instruction mix for one phase unit (rhs evaluation, lower sweep
// or upper sweep each count as one unit). The constants are calibrated so a
// class-A-shaped run (62³ grid, 250 iterations) reproduces the magnitudes
// and level proportions of the paper's Table 5: 145:175:4.71:3.97 ×10⁹
// instructions at CPU/register, L1, L2 and memory.
const (
	luCellReg = 812.0
	luCellL1  = 980.0
	luCellL2  = 26.4
	luCellMem = 22.2
)

// Message tags.
const (
	luTagFaceX = 1 // pre-sweep old-ghost faces along x
	luTagFaceY = 2 // pre-sweep old-ghost faces along y
	luTagWaveX = 3 // per-plane wavefront column
	luTagWaveY = 4 // per-plane wavefront row
)

// LUResult is the kernel's verifiable outcome.
type LUResult struct {
	// Residual0 and Residual are the RMS residuals before and after the
	// SSOR iterations.
	Residual0, Residual float64
	// SolutionErr is the RMS error against the manufactured exact solution.
	SolutionErr float64
	// History holds the per-iteration residuals when TrackResiduals is set.
	History []float64
}

// omega returns the relaxation factor, defaulting to NPB's 1.2.
func (l LU) omega() float64 {
	if l.Omega == 0 {
		return 1.2
	}
	return l.Omega
}

// ncomp returns the virtual component count, defaulting to 5.
func (l LU) ncomp() int {
	if l.Ncomp == 0 {
		return 5
	}
	return l.Ncomp
}

// Validate reports an error for unusable parameters on n ranks.
func (l LU) Validate(n int) error {
	if l.N < 4 {
		return fmt.Errorf("npb: LU grid N = %d, want ≥ 4", l.N)
	}
	if l.Iters < 1 {
		return fmt.Errorf("npb: LU Iters = %d, want ≥ 1", l.Iters)
	}
	if w := l.omega(); w <= 0 || w >= 2 {
		return fmt.Errorf("npb: LU omega = %g outside (0,2)", w)
	}
	if l.ncomp() < 1 {
		return fmt.Errorf("npb: LU Ncomp = %d, want ≥ 1", l.Ncomp)
	}
	px, py := Decompose2D(n)
	if px > l.N || py > l.N {
		return fmt.Errorf("npb: LU grid %d too small for %dx%d rank grid", l.N, px, py)
	}
	return nil
}

// Decompose2D splits n ranks into the most square px×py grid with px ≤ py.
func Decompose2D(n int) (px, py int) {
	px = int(math.Sqrt(float64(n)))
	for ; px > 1; px-- {
		if n%px == 0 {
			break
		}
	}
	if px < 1 {
		px = 1
	}
	return px, n / px
}

// blockRange returns the half-open global index range [lo, hi) of block b
// out of p near-even blocks over size n (1-based interior indices).
func blockRange(n, p, b int) (lo, hi int) {
	return n*b/p + 1, n*(b+1)/p + 1
}

// Run executes LU on the world.
func (l LU) Run(w mpi.World) (LUResult, *mpi.Result, error) {
	if err := l.Validate(w.N); err != nil {
		return LUResult{}, nil, err
	}
	var out LUResult
	res, err := mpi.Run(w, func(c *mpi.Ctx) error {
		r, err := l.rank(c)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = r
		}
		return nil
	})
	if err != nil {
		return LUResult{}, nil, err
	}
	return out, res, nil
}

// luGrid is one rank's share of the domain plus ghost shells.
type luGrid struct {
	l          LU
	c          *mpi.Ctx
	n          int // interior points per side
	px, py     int // rank grid
	ix, iy     int // my rank coordinates
	x0, x1     int // my global x range [x0, x1), 1-based interior
	y0, y1     int
	lx, ly     int // interior sizes
	u, rhs     []float64
	jdim, kdim int // index strides

	// Pack scratch: Send snapshots its payload before returning, so one
	// buffer per shape can serve every outgoing face/column/row. The hot
	// wavefront path otherwise allocates one small slice per z-plane per
	// sweep per iteration.
	faceBuf []float64
	colBuf  []float64
	rowBuf  []float64
}

func (g *luGrid) idx(i, j, k int) int { return (i*g.jdim+j)*g.kdim + k }

// exact is the manufactured solution u*(x,y,z) = xyz(1−x)(1−y)(1−z) on the
// unit cube, evaluated at global 0-based lattice coordinates in [0, n+1].
func (g *luGrid) exact(gi, gj, gk int) float64 {
	//palint:ignore floatdiv -- n+1 >= 1 for any non-negative grid size, so the mesh spacing denominator is structurally positive
	h := 1.0 / float64(g.n+1)
	x, y, z := float64(gi)*h, float64(gj)*h, float64(gk)*h
	return 64 * x * (1 - x) * y * (1 - y) * z * (1 - z)
}

// applyExact evaluates the 7-point operator A = 6I − shifts on the exact
// solution, which defines the right-hand side so u* is the exact discrete
// solution.
func (g *luGrid) applyExact(gi, gj, gk int) float64 {
	return 6*g.exact(gi, gj, gk) -
		g.exact(gi-1, gj, gk) - g.exact(gi+1, gj, gk) -
		g.exact(gi, gj-1, gk) - g.exact(gi, gj+1, gk) -
		g.exact(gi, gj, gk-1) - g.exact(gi, gj, gk+1)
}

func (l LU) rank(c *mpi.Ctx) (LUResult, error) {
	px, py := Decompose2D(c.Size())
	g := &luGrid{l: l, c: c, n: l.N, px: px, py: py}
	g.ix, g.iy = c.Rank()%px, c.Rank()/px
	g.x0, g.x1 = blockRange(l.N, px, g.ix)
	g.y0, g.y1 = blockRange(l.N, py, g.iy)
	g.lx, g.ly = g.x1-g.x0, g.y1-g.y0
	g.jdim = g.ly + 2
	g.kdim = l.N + 2
	size := (g.lx + 2) * g.jdim * g.kdim
	g.u = make([]float64, size)
	g.rhs = make([]float64, size)

	c.SetPhase("lu-setup")
	for i := 1; i <= g.lx; i++ {
		for j := 1; j <= g.ly; j++ {
			for k := 1; k <= g.n; k++ {
				g.rhs[g.idx(i, j, k)] = g.applyExact(g.x0+i-1, g.y0+j-1, k)
			}
		}
	}
	if err := g.billPhase(1); err != nil {
		return LUResult{}, err
	}

	res0, err := g.residual()
	if err != nil {
		return LUResult{}, err
	}

	omega := l.omega()
	var history []float64
	for it := 0; it < l.Iters; it++ {
		if err := g.lowerSweep(omega); err != nil {
			return LUResult{}, err
		}
		if err := g.upperSweep(omega); err != nil {
			return LUResult{}, err
		}
		if l.TrackResiduals {
			r, err := g.residual()
			if err != nil {
				return LUResult{}, err
			}
			history = append(history, r)
		}
	}

	resN, err := g.residual()
	if err != nil {
		return LUResult{}, err
	}
	serr, err := g.solutionError()
	if err != nil {
		return LUResult{}, err
	}
	return LUResult{Residual0: res0, Residual: resN, SolutionErr: serr, History: history}, nil
}

// billPhase accounts units phase units of the per-cell workload over the
// rank's interior.
func (g *luGrid) billPhase(units float64) error {
	cells := float64(g.lx*g.ly*g.n) * units
	return g.c.Compute(machine.W(cells*luCellReg, cells*luCellL1, cells*luCellL2, cells*luCellMem))
}

// billPlane accounts one phase unit over a single z-plane.
func (g *luGrid) billPlane() error {
	cells := float64(g.lx * g.ly)
	return g.c.Compute(machine.W(cells*luCellReg, cells*luCellL1, cells*luCellL2, cells*luCellMem))
}

// vb returns the timed byte count of n real doubles carrying Ncomp
// components.
func (g *luGrid) vb(n int) int { return n * 8 * g.l.ncomp() }

// neighbour rank helpers; −1 means domain boundary.
func (g *luGrid) west() int {
	if g.ix == 0 {
		return -1
	}
	return g.iy*g.px + g.ix - 1
}
func (g *luGrid) east() int {
	if g.ix == g.px-1 {
		return -1
	}
	return g.iy*g.px + g.ix + 1
}
func (g *luGrid) south() int {
	if g.iy == 0 {
		return -1
	}
	return (g.iy-1)*g.px + g.ix
}
func (g *luGrid) north() int {
	if g.iy == g.py-1 {
		return -1
	}
	return (g.iy+1)*g.px + g.ix
}

// packFaceX copies column i (all interior j, k) into a dense face buffer,
// valid until the next pack call.
func (g *luGrid) packFaceX(i int) []float64 {
	out := g.faceBuf[:0]
	for j := 1; j <= g.ly; j++ {
		for k := 1; k <= g.n; k++ {
			out = append(out, g.u[g.idx(i, j, k)])
		}
	}
	g.faceBuf = out
	return out
}

func (g *luGrid) unpackFaceX(i int, face []float64) {
	p := 0
	for j := 1; j <= g.ly; j++ {
		for k := 1; k <= g.n; k++ {
			g.u[g.idx(i, j, k)] = face[p]
			p++
		}
	}
}

// packFaceY copies row j (all interior i, k) into a dense face buffer,
// valid until the next pack call.
func (g *luGrid) packFaceY(j int) []float64 {
	out := g.faceBuf[:0]
	for i := 1; i <= g.lx; i++ {
		for k := 1; k <= g.n; k++ {
			out = append(out, g.u[g.idx(i, j, k)])
		}
	}
	g.faceBuf = out
	return out
}

func (g *luGrid) unpackFaceY(j int, face []float64) {
	p := 0
	for i := 1; i <= g.lx; i++ {
		for k := 1; k <= g.n; k++ {
			g.u[g.idx(i, j, k)] = face[p]
			p++
		}
	}
}

// exchangeGhostX refreshes the ghost column on the given side ("west" pulls
// from the west neighbour into i=0; "east" into i=lx+1), sending the
// mirror-image boundary the peer needs.
func (g *luGrid) exchangeGhostX(pullWest bool) error {
	w, e := g.west(), g.east()
	// Each rank exchanges its own boundary column for the neighbour's: the
	// peer's column becomes our ghost. Sends run toward the side with no
	// receiver dependency first, so rendezvous-sized faces form a chain
	// anchored at the edge rank and cannot deadlock.
	if pullWest {
		// Ghost i=0 ← west's i=lx; we provide our i=lx to the east.
		if e >= 0 {
			if err := g.c.Send(e, luTagFaceX, g.packFaceX(g.lx), g.vb(g.ly*g.n)); err != nil {
				return err
			}
		}
		if w >= 0 {
			face, err := g.c.Recv(w, luTagFaceX)
			if err != nil {
				return err
			}
			g.unpackFaceX(0, face)
			g.c.Free(face)
		}
		return nil
	}
	// Ghost i=lx+1 ← east's i=1; we provide our i=1 to the west.
	if w >= 0 {
		if err := g.c.Send(w, luTagFaceX, g.packFaceX(1), g.vb(g.ly*g.n)); err != nil {
			return err
		}
	}
	if e >= 0 {
		face, err := g.c.Recv(e, luTagFaceX)
		if err != nil {
			return err
		}
		g.unpackFaceX(g.lx+1, face)
		g.c.Free(face)
	}
	return nil
}

// exchangeGhostY refreshes the ghost row on the given side.
func (g *luGrid) exchangeGhostY(pullSouth bool) error {
	s, n := g.south(), g.north()
	if pullSouth {
		if n >= 0 {
			if err := g.c.Send(n, luTagFaceY, g.packFaceY(g.ly), g.vb(g.lx*g.n)); err != nil {
				return err
			}
		}
		if s >= 0 {
			face, err := g.c.Recv(s, luTagFaceY)
			if err != nil {
				return err
			}
			g.unpackFaceY(0, face)
			g.c.Free(face)
		}
		return nil
	}
	if s >= 0 {
		if err := g.c.Send(s, luTagFaceY, g.packFaceY(1), g.vb(g.lx*g.n)); err != nil {
			return err
		}
	}
	if n >= 0 {
		face, err := g.c.Recv(n, luTagFaceY)
		if err != nil {
			return err
		}
		g.unpackFaceY(g.ly+1, face)
		g.c.Free(face)
	}
	return nil
}

// planeColX packs one z-plane's boundary column (ly values) into scratch
// valid until the next planeColX call.
func (g *luGrid) planeColX(i, k int) []float64 {
	if g.colBuf == nil {
		g.colBuf = make([]float64, g.ly)
	}
	out := g.colBuf
	for j := 1; j <= g.ly; j++ {
		out[j-1] = g.u[g.idx(i, j, k)]
	}
	return out
}

func (g *luGrid) setPlaneColX(i, k int, v []float64) {
	for j := 1; j <= g.ly; j++ {
		g.u[g.idx(i, j, k)] = v[j-1]
	}
}

func (g *luGrid) planeRowY(j, k int) []float64 {
	if g.rowBuf == nil {
		g.rowBuf = make([]float64, g.lx)
	}
	out := g.rowBuf
	for i := 1; i <= g.lx; i++ {
		out[i-1] = g.u[g.idx(i, j, k)]
	}
	return out
}

func (g *luGrid) setPlaneRowY(j, k int, v []float64) {
	for i := 1; i <= g.lx; i++ {
		g.u[g.idx(i, j, k)] = v[i-1]
	}
}

// lowerSweep is the forward SSOR half: ascending (k, j, i), pipelined over
// z-planes from the south-west rank corner.
func (g *luGrid) lowerSweep(omega float64) error {
	g.c.SetPhase("lu-lower-ghost")
	// Old-value ghosts on the downstream sides.
	if err := g.exchangeGhostX(false); err != nil { // east ghost
		return err
	}
	if err := g.exchangeGhostY(false); err != nil { // north ghost
		return err
	}
	w, e, s, n := g.west(), g.east(), g.south(), g.north()
	for k := 1; k <= g.n; k++ {
		g.c.SetPhase("lu-lower-wave")
		if w >= 0 {
			col, err := g.c.Recv(w, luTagWaveX)
			if err != nil {
				return err
			}
			g.setPlaneColX(0, k, col)
			g.c.Free(col)
		}
		if s >= 0 {
			row, err := g.c.Recv(s, luTagWaveY)
			if err != nil {
				return err
			}
			g.setPlaneRowY(0, k, row)
			g.c.Free(row)
		}
		g.c.SetPhase("lu-lower")
		// Inlined relaxPoint with an incrementing index (i steps by
		// jdim·kdim): same operand order, bit-identical result.
		di := g.jdim * g.kdim
		u, rhs, dk := g.u, g.rhs, g.kdim
		for j := 1; j <= g.ly; j++ {
			id := g.idx(1, j, k)
			for i := 1; i <= g.lx; i++ {
				au := 6*u[id] -
					u[id-di] - u[id+di] -
					u[id-dk] - u[id+dk] -
					u[id-1] - u[id+1]
				u[id] += omega * (rhs[id] - au) / 6
				id += di
			}
		}
		if err := g.billPlane(); err != nil {
			return err
		}
		g.c.SetPhase("lu-lower-wave")
		if e >= 0 {
			if err := g.c.Send(e, luTagWaveX, g.planeColX(g.lx, k), g.vb(g.ly)); err != nil {
				return err
			}
		}
		if n >= 0 {
			if err := g.c.Send(n, luTagWaveY, g.planeRowY(g.ly, k), g.vb(g.lx)); err != nil {
				return err
			}
		}
	}
	return nil
}

// upperSweep is the backward SSOR half: descending (k, j, i), pipelined
// from the north-east rank corner.
func (g *luGrid) upperSweep(omega float64) error {
	g.c.SetPhase("lu-upper-ghost")
	if err := g.exchangeGhostX(true); err != nil { // west ghost
		return err
	}
	if err := g.exchangeGhostY(true); err != nil { // south ghost
		return err
	}
	w, e, s, n := g.west(), g.east(), g.south(), g.north()
	for k := g.n; k >= 1; k-- {
		g.c.SetPhase("lu-upper-wave")
		if e >= 0 {
			col, err := g.c.Recv(e, luTagWaveX)
			if err != nil {
				return err
			}
			g.setPlaneColX(g.lx+1, k, col)
			g.c.Free(col)
		}
		if n >= 0 {
			row, err := g.c.Recv(n, luTagWaveY)
			if err != nil {
				return err
			}
			g.setPlaneRowY(g.ly+1, k, row)
			g.c.Free(row)
		}
		g.c.SetPhase("lu-upper")
		// Inlined relaxPoint, descending (same operand order as the
		// forward form, bit-identical result).
		di := g.jdim * g.kdim
		u, rhs, dk := g.u, g.rhs, g.kdim
		for j := g.ly; j >= 1; j-- {
			id := g.idx(g.lx, j, k)
			for i := g.lx; i >= 1; i-- {
				au := 6*u[id] -
					u[id-di] - u[id+di] -
					u[id-dk] - u[id+dk] -
					u[id-1] - u[id+1]
				u[id] += omega * (rhs[id] - au) / 6
				id -= di
			}
		}
		if err := g.billPlane(); err != nil {
			return err
		}
		g.c.SetPhase("lu-upper-wave")
		if w >= 0 {
			if err := g.c.Send(w, luTagWaveX, g.planeColX(1, k), g.vb(g.ly)); err != nil {
				return err
			}
		}
		if s >= 0 {
			if err := g.c.Send(s, luTagWaveY, g.planeRowY(1, k), g.vb(g.lx)); err != nil {
				return err
			}
		}
	}
	return nil
}

// refreshAllGhosts brings all four ghost faces current, for residual and
// error norms.
func (g *luGrid) refreshAllGhosts() error {
	if err := g.exchangeGhostX(true); err != nil {
		return err
	}
	if err := g.exchangeGhostX(false); err != nil {
		return err
	}
	if err := g.exchangeGhostY(true); err != nil {
		return err
	}
	return g.exchangeGhostY(false)
}

// residual returns the global RMS residual ‖rhs − A·u‖.
func (g *luGrid) residual() (float64, error) {
	g.c.SetPhase("lu-residual")
	if err := g.refreshAllGhosts(); err != nil {
		return 0, err
	}
	local := 0.0
	di := g.jdim * g.kdim
	for i := 1; i <= g.lx; i++ {
		for j := 1; j <= g.ly; j++ {
			base := g.idx(i, j, 0)
			for k := 1; k <= g.n; k++ {
				id := base + k
				au := 6*g.u[id] -
					g.u[id-di] - g.u[id+di] -
					g.u[id-g.kdim] - g.u[id+g.kdim] -
					g.u[id-1] - g.u[id+1]
				r := g.rhs[id] - au
				local += r * r
			}
		}
	}
	if err := g.billPhase(1); err != nil {
		return 0, err
	}
	sum, err := g.c.Allreduce([]float64{local}, mpi.Sum, 8*g.l.ncomp())
	if err != nil {
		return 0, err
	}
	total := float64(g.n) * float64(g.n) * float64(g.n)
	return math.Sqrt(sum[0] / total), nil
}

// solutionError returns the global RMS error against the manufactured
// solution.
func (g *luGrid) solutionError() (float64, error) {
	local := 0.0
	for i := 1; i <= g.lx; i++ {
		for j := 1; j <= g.ly; j++ {
			for k := 1; k <= g.n; k++ {
				d := g.u[g.idx(i, j, k)] - g.exact(g.x0+i-1, g.y0+j-1, k)
				local += d * d
			}
		}
	}
	sum, err := g.c.Allreduce([]float64{local}, mpi.Sum, 8)
	if err != nil {
		return 0, err
	}
	total := float64(g.n) * float64(g.n) * float64(g.n)
	return math.Sqrt(sum[0] / total), nil
}
