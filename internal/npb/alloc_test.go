package npb

import (
	"testing"
)

// ftRunAllocs measures the allocations of one full FT run at the given
// iteration count on 4 ranks.
func ftRunAllocs(t *testing.T, iters int) float64 {
	t.Helper()
	ft := FT{Nx: 16, Ny: 16, Nz: 16, Iters: iters}
	w := npbWorld(4, 600)
	return testing.AllocsPerRun(3, func() {
		if _, _, err := ft.Run(w); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFTIterationAllocs pins the steady-state allocation cost of one FT
// iteration. Differencing two iteration counts cancels setup (grids, the
// one-time forward transform, plan construction) and isolates the
// per-iteration marginal cost: with the transpose pack buffers, column
// scratch and inverse work arrays reused, what remains is dominated by the
// collective deposit copies the simulator makes by design (they have no
// single owner and are never pooled). Measured ~45 allocs/iteration at 4
// ranks; the budget leaves ~2× headroom while still catching a return of
// the per-iteration fresh-scratch pattern, which costs hundreds.
func TestFTIterationAllocs(t *testing.T) {
	base := ftRunAllocs(t, 2)
	more := ftRunAllocs(t, 6)
	perIter := (more - base) / 4
	if perIter > 90 {
		t.Errorf("FT allocates %.0f allocs/iteration, want ≤ 90", perIter)
	}
}
