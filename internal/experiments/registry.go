package experiments

import (
	"context"
	"fmt"
	"sort"

	"pasp/internal/cluster"
	"pasp/internal/mpi"
	"pasp/internal/obs"
)

// Kernel is one registered benchmark: its runner and its campaign grid.
type Kernel struct {
	// Name is the lower-case NAS name ("ep", "ft", ...).
	Name string
	// Run executes the kernel's suite class on a world.
	Run cluster.RunFunc
	// Grid is the campaign the kernel sweeps (LU uses the smaller grid).
	Grid cluster.Grid
	// Measure sweeps the kernel's campaign through the campaign store. The
	// context bounds only this caller's interest in the result; see
	// store.go for the coalescing contract.
	Measure func(ctx context.Context) (*Campaign, error)
	// Peek returns the kernel's campaign only if the store has already
	// finished measuring it — the admission-free fast path paserve answers
	// cache hits from.
	Peek func() (*Campaign, bool)
}

// Kernels returns the suite's registered kernels keyed by name, so
// commands can resolve a -bench flag uniformly.
func (s Suite) Kernels() map[string]Kernel {
	return map[string]Kernel{
		"ep": {Name: "ep", Run: s.RunEP, Grid: s.Grid, Measure: s.MeasureEP,
			Peek: func() (*Campaign, bool) { return s.peekCached("EP", s.EP, s.Grid) }},
		"ft": {Name: "ft", Run: s.RunFT, Grid: s.Grid, Measure: s.MeasureFT,
			Peek: func() (*Campaign, bool) { return s.peekCached("FT", s.FT, s.Grid) }},
		"lu": {Name: "lu", Run: s.RunLU, Grid: s.LUGrid, Measure: s.MeasureLU,
			Peek: func() (*Campaign, bool) { return s.peekCached("LU", s.LU, s.LUGrid) }},
		"cg": {Name: "cg", Run: s.RunCG, Grid: s.Grid, Measure: s.MeasureCG,
			Peek: func() (*Campaign, bool) { return s.peekCached("CG", s.CG, s.Grid) }},
		"mg": {Name: "mg", Run: s.RunMG, Grid: s.Grid, Measure: s.MeasureMG,
			Peek: func() (*Campaign, bool) { return s.peekCached("MG", s.MG, s.Grid) }},
		"is": {Name: "is", Run: s.RunIS, Grid: s.Grid, Measure: s.MeasureIS,
			Peek: func() (*Campaign, bool) { return s.peekCached("IS", s.IS, s.Grid) }},
		"sp": {Name: "sp", Run: s.RunSP, Grid: s.Grid, Measure: s.MeasureSP,
			Peek: func() (*Campaign, bool) { return s.peekCached("SP", s.SP, s.Grid) }},
	}
}

// KernelNames returns the registered names, sorted.
func (s Suite) KernelNames() []string {
	ks := s.Kernels()
	out := make([]string, 0, len(ks))
	for n := range ks {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Kernel resolves one kernel by name.
func (s Suite) Kernel(name string) (Kernel, error) {
	k, ok := s.Kernels()[name]
	if !ok {
		return Kernel{}, fmt.Errorf("experiments: unknown kernel %q (have %v)", name, s.KernelNames())
	}
	return k, nil
}

// MeasureKernel sweeps the named kernel's grid through the campaign store:
// repeated calls for the same suite return the one memoized campaign.
func (s Suite) MeasureKernel(ctx context.Context, name string) (*Campaign, error) {
	k, err := s.Kernel(name)
	if err != nil {
		return nil, err
	}
	return k.Measure(ctx)
}

// RunKernelOnce executes the named kernel at one configuration.
func (s Suite) RunKernelOnce(name string, n int, mhz float64) (*mpi.Result, error) {
	return s.RunKernelTraced(name, n, mhz, nil, nil)
}

// RunKernelTraced executes the named kernel at one configuration with an
// observability recorder and an operation-stream recording attached; either
// may be nil to disable that side. The run span (stamped with the kernel
// name), per-rank phase spans and run metrics land on rec; tape captures
// each rank's operation stream, whose CommLog cmd/paverify checks against
// the static skeleton. Both are injected on the World rather than the
// Platform so the campaign store's content fingerprint of Platform never
// sees a pointer.
func (s Suite) RunKernelTraced(name string, n int, mhz float64, rec *obs.Recorder, tape *mpi.Recording) (*mpi.Result, error) {
	k, err := s.Kernel(name)
	if err != nil {
		return nil, err
	}
	w, err := s.Platform.World(n, mhz)
	if err != nil {
		return nil, err
	}
	w.Obs = rec
	w.Record = tape
	res, err := k.Run(w)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.AddRunAttrs(obs.A("kernel", name))
	}
	return res, nil
}

// SuiteByName resolves the -suite flag shared by every command.
func SuiteByName(name string) (Suite, error) {
	switch name {
	case "paper":
		return Paper(), nil
	case "quick":
		return Quick(), nil
	case "scale":
		return Scale(), nil
	default:
		return Suite{}, fmt.Errorf("experiments: unknown suite %q (have paper, quick, scale)", name)
	}
}
