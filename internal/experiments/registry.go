package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"pasp/internal/cluster"
	"pasp/internal/mpi"
	"pasp/internal/obs"
)

// Kernel is one registered benchmark: its runner, its campaign grid and
// the campaign-store key naming both on the suite's platform, with the
// suite's PingReps for the FP fit. The key is rendered once, when Kernel
// or Kernels builds the row, so Measure and Peek format nothing. The key
// stands for Run's class and for Grid, so treat a built Kernel as
// read-only.
type Kernel struct {
	// Name is the lower-case NAS name ("ep", "ft", ...).
	Name string
	// Run executes the kernel's suite class on a world.
	Run cluster.RunFunc
	// Grid is the campaign the kernel sweeps (LU uses the smaller grid).
	Grid cluster.Grid

	platform cluster.Platform // what Measure sweeps Grid on
	key      campaignKey
}

// kernelNames lists the registered kernels, sorted; Suite.class resolves
// each one.
var kernelNames = []string{"cg", "ep", "ft", "is", "lu", "mg", "sp"}

// Kernels returns the suite's registered kernels keyed by name, so
// commands can resolve a -bench flag uniformly. Building the table renders
// every row's campaign key and fingerprints the platform once for all of
// them; a caller that looks kernels up per request (paserve) builds it
// once.
func (s Suite) Kernels() map[string]Kernel {
	platform := fmt.Sprintf("%+v", s.Platform)
	ks := make(map[string]Kernel, len(kernelNames))
	for _, name := range kernelNames {
		class, g, run, _ := s.class(name)
		ks[name] = s.newKernel(name, class, g, run, platform)
	}
	return ks
}

// class returns the named kernel's suite class, campaign grid and runner;
// ok is false for a name the suite does not register.
func (s Suite) class(name string) (class any, g cluster.Grid, run cluster.RunFunc, ok bool) {
	switch name {
	case "ep":
		return s.EP, s.Grid, runOf(s.EP.Run), true
	case "ft":
		return s.FT, s.Grid, runOf(s.FT.Run), true
	case "lu":
		return s.LU, s.LUGrid, runOf(s.LU.Run), true
	case "cg":
		return s.CG, s.Grid, runOf(s.CG.Run), true
	case "mg":
		return s.MG, s.Grid, runOf(s.MG.Run), true
	case "is":
		return s.IS, s.Grid, runOf(s.IS.Run), true
	case "sp":
		return s.SP, s.Grid, runOf(s.SP.Run), true
	}
	return nil, cluster.Grid{}, nil, false
}

// newKernel builds one table row and renders its campaign key from the
// upper-cased name ("EP", "FT", ...) with class, the kernel's full
// parameter struct, so two classes of one kernel cannot collide; from the
// grid; from platform, the caller's fingerprint of s.Platform; and from
// s.PingReps.
func (s Suite) newKernel(name string, class any, g cluster.Grid, run cluster.RunFunc, platform string) Kernel {
	return Kernel{Name: name, Run: run, Grid: g, platform: s.Platform, key: campaignKey{
		kernel:   fmt.Sprintf("%s %+v", strings.ToUpper(name), class),
		grid:     fmt.Sprintf("%v %v", g.Ns, g.MHz),
		platform: platform,
		pingReps: s.PingReps,
	}}
}

// runOf adapts a class's Run to a sweep, dropping the class's own result.
func runOf[R any](run func(mpi.World) (R, *mpi.Result, error)) cluster.RunFunc {
	return func(w mpi.World) (*mpi.Result, error) {
		_, res, err := run(w)
		return res, err
	}
}

// KernelNames returns the registered names, sorted.
func (s Suite) KernelNames() []string {
	return slices.Clone(kernelNames)
}

// Kernel resolves one kernel by name, building only its row: the platform
// is fingerprinted once, for that row alone.
func (s Suite) Kernel(name string) (Kernel, error) {
	class, g, run, ok := s.class(name)
	if !ok {
		return Kernel{}, fmt.Errorf("experiments: unknown kernel %q (have %v)", name, kernelNames)
	}
	return s.newKernel(name, class, g, run, fmt.Sprintf("%+v", s.Platform)), nil
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

// RunKernelTraced executes the named kernel at one configuration with a
// metrics registry and an operation-stream recording attached; either may
// be nil to disable that side. The run's metrics land on reg; tape captures
// each rank's operation stream, whose CommLog cmd/paverify checks against
// the static skeleton. Both are injected on the World rather than the
// Platform so the campaign store's content fingerprint of Platform never
// sees a pointer.
func (s Suite) RunKernelTraced(name string, n int, mhz float64, reg *obs.Registry, tape *mpi.Recording) (*mpi.Result, error) {
	k, err := s.Kernel(name)
	if err != nil {
		return nil, err
	}
	w, err := s.Platform.World(n, mhz)
	if err != nil {
		return nil, err
	}
	w.Metrics = reg
	w.Record = tape
	return k.Run(w)
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
