package npb

import (
	"runtime"
	"testing"
)

// ftRunCost measures the mean allocations and allocated bytes of one full
// FT run on n ranks at the given iteration count.
func ftRunCost(t *testing.T, n, iters int) (allocs, bytes float64) {
	t.Helper()
	ft := FT{Nx: 16, Ny: 16, Nz: 16, Iters: iters}
	w := npbWorld(n, 600)
	run := func() {
		if _, _, err := ft.Run(w); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run() // warm up, as testing.AllocsPerRun does
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// ftIterationCost differences two iteration counts, which cancels setup
// (grids, the one-time forward transform, plan construction) and isolates
// the per-iteration marginal cost.
func ftIterationCost(t *testing.T, n int) (allocs, bytes float64) {
	t.Helper()
	baseAllocs, baseBytes := ftRunCost(t, n, 2)
	moreAllocs, moreBytes := ftRunCost(t, n, 6)
	return (moreAllocs - baseAllocs) / 4, (moreBytes - baseBytes) / 4
}

// TestFTIterationAllocs pins the steady-state allocation cost of one FT
// iteration on 4 ranks. With the transpose pack buffers, column scratch
// and inverse work arrays reused, what remains is dominated by the
// collective deposit copies the simulator makes by design (they have no
// single owner and are never pooled). Measured 19 allocs/iteration; the
// budget still catches a return of the per-iteration fresh-scratch
// pattern, which costs hundreds.
func TestFTIterationAllocs(t *testing.T) {
	if perIter, _ := ftIterationCost(t, 4); perIter > 90 {
		t.Errorf("FT allocates %.0f allocs/iteration, want ≤ 90", perIter)
	}
}

// TestFTIterationAllocsSingleRank pins the same cost on one rank, where
// each transpose's Alltoall hands back a copy of the rank's one part. The
// transposes free their copies, so the buffer cache serves every later
// one: measured ~3 allocs and ~0.9 KB per iteration. One 16³ transpose
// copy is 64 KB, so the bytes budget catches a copy that bypasses the
// cache.
func TestFTIterationAllocsSingleRank(t *testing.T) {
	allocs, bytes := ftIterationCost(t, 1)
	if allocs > 10 {
		t.Errorf("FT on one rank allocates %.1f objects/iteration, want ≤ 10", allocs)
	}
	if bytes > 16<<10 {
		t.Errorf("FT on one rank allocates %.0f B/iteration, want ≤ %d", bytes, 16<<10)
	}
}
