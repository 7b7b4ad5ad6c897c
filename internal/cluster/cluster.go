// Package cluster assembles the substrates into the paper's experimental
// platform — a 16-node DVS-enabled cluster of Pentium M laptops on 100 Mb
// switched Ethernet — and provides grid sweeps over (processor count,
// frequency) configurations, the measurement campaign every experiment
// starts from.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"pasp/internal/faults"
	"pasp/internal/machine"
	"pasp/internal/mpi"
	"pasp/internal/obs"
	"pasp/internal/power"
	"pasp/internal/simnet"
	"pasp/internal/units"
)

// Platform bundles the hardware models of one cluster type.
type Platform struct {
	// Mach is the node timing model.
	Mach machine.Config
	// Net is the interconnect model.
	Net simnet.Config
	// Prof is the node power profile.
	Prof power.Profile
	// MaxNodes is how many nodes the cluster has.
	MaxNodes int
	// Faults is the chaos-harness configuration applied to every world the
	// platform builds. The zero value injects nothing; a non-zero config is
	// part of the platform's identity, so perturbed campaigns are keyed
	// apart from clean ones in the campaign store.
	Faults faults.Config
}

// PentiumM returns the paper's platform: 16 Dell Inspiron 8600 nodes
// (Pentium M 1.4 GHz, Table 2 P-states) on a Cisco Catalyst 2950 switch,
// running MPICH over TCP.
func PentiumM() Platform {
	return Platform{
		Mach:     machine.PentiumM(),
		Net:      simnet.FastEthernet(),
		Prof:     power.PentiumM(),
		MaxNodes: 16,
	}
}

// Validate reports an error for an inconsistent platform.
func (p Platform) Validate() error {
	if err := p.Mach.Validate(); err != nil {
		return err
	}
	if err := p.Net.Validate(); err != nil {
		return err
	}
	if err := p.Prof.Validate(); err != nil {
		return err
	}
	if p.MaxNodes < 1 {
		return fmt.Errorf("cluster: MaxNodes = %d", p.MaxNodes)
	}
	if err := p.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// World returns an MPI world of n nodes at the P-state closest to mhz.
func (p Platform) World(n int, mhz float64) (mpi.World, error) {
	if n < 1 || n > p.MaxNodes {
		return mpi.World{}, fmt.Errorf("cluster: %d nodes outside [1, %d]", n, p.MaxNodes)
	}
	st, err := p.Prof.StateAt(units.MHz(mhz))
	if err != nil {
		return mpi.World{}, err
	}
	return mpi.World{N: n, Net: p.Net, Mach: p.Mach, Prof: p.Prof, State: st, Faults: p.Faults}, nil
}

// Grid is a measurement campaign: every (N, MHz) combination.
type Grid struct {
	// Ns is the processor counts, ascending; Ns[0] is usually 1.
	Ns []int
	// MHz is the frequencies in megahertz, ascending; MHz[0] is the base.
	MHz []float64
}

// PaperGrid returns the grid of the paper's Tables 1 and 3 and Figures 1–2:
// N ∈ {1, 2, 4, 8, 16}, f ∈ {600 … 1400} MHz.
func PaperGrid() Grid {
	return Grid{
		Ns:  []int{1, 2, 4, 8, 16},
		MHz: []float64{600, 800, 1000, 1200, 1400},
	}
}

// Validate reports an error for an empty or unsorted grid.
func (g Grid) Validate() error {
	if len(g.Ns) == 0 || len(g.MHz) == 0 {
		return fmt.Errorf("cluster: empty grid")
	}
	for i := 1; i < len(g.Ns); i++ {
		if g.Ns[i] <= g.Ns[i-1] {
			return fmt.Errorf("cluster: Ns not ascending at %d", i)
		}
	}
	for i := 1; i < len(g.MHz); i++ {
		if g.MHz[i] <= g.MHz[i-1] {
			return fmt.Errorf("cluster: MHz not ascending at %d", i)
		}
	}
	return nil
}

// Has reports whether (n, mhz) is a cell of g. The frequency must match
// exactly: gears are discrete identity values, not measurements.
func (g Grid) Has(n int, mhz float64) bool {
	return slices.Contains(g.Ns, n) && slices.Contains(g.MHz, mhz)
}

// Cell is one grid measurement.
type Cell struct {
	// N and MHz identify the configuration.
	N   int
	MHz float64
	// Res is the simulation outcome.
	Res *mpi.Result
}

// RunFunc executes a kernel on a configured world.
type RunFunc func(w mpi.World) (*mpi.Result, error)

// Sweep measures run at every grid cell on a pool of up to GOMAXPROCS
// workers; each cell's simulation is itself deterministic and the work
// distribution never influences results, so the sweep's bytes are
// identical at any GOMAXPROCS (pinned by TestSweepGOMAXPROCSDeterminism).
//
// A cancelled ctx stops the sweep at cell granularity: no new cell starts
// once ctx.Done() is closed, in-flight cells finish (one simulation is the
// abort latency), and the sweep returns ctx's error. Cancellation is how a
// caller that went away — an HTTP client that disconnected, a drained
// server — stops paying for the rest of a campaign it no longer wants.
//
// A grid with more than one frequency is swept by record/replay: kernel
// control flow, data movement and message shapes do not depend on the
// operating frequency, so the kernel executes for real once per rank count
// (at the grid's first frequency, recording every rank's operation stream)
// and the remaining frequencies re-time the recorded stream through the
// same mpi timing paths — bit-identical to direct runs (see mpi.Replay) at
// a fifth of the work on the paper's five-frequency grid. A single-gear
// grid records nothing: its one cell per rank count runs directly.
func Sweep(ctx context.Context, p Platform, g Grid, run RunFunc) ([]Cell, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, len(g.Ns)*len(g.MHz))
	for _, n := range g.Ns {
		for _, f := range g.MHz {
			cells = append(cells, Cell{N: n, MHz: f})
		}
	}
	errs := make([]error, len(cells))
	// One unit per rank count, so a unit's record run and its replays share
	// a worker while independent rank counts spread across the pool.
	sweepUnits(ctx, len(g.Ns), func(u int) {
		var rec *mpi.Recording
		if len(g.MHz) > 1 {
			rec = mpi.NewRecording()
		}
		for j := range g.MHz {
			if j > 0 && ctx.Err() != nil {
				return
			}
			i := u*len(g.MHz) + j
			runCell(p, run, &cells[i], &errs[i], rec, j > 0)
		}
	})
	// Cancellation trumps the per-cell surface: the cells a cancelled sweep
	// never ran carry no errors, so without this check a half-swept grid
	// could look like a success.
	if err := ctx.Err(); err != nil {
		// The request ID (when the sweep ran on behalf of a serving
		// request) names which caller's cancellation killed the work.
		if id := obs.RequestIDFrom(ctx); id != "" {
			return nil, fmt.Errorf("cluster: sweep cancelled (request %s): %w", id, err)
		}
		return nil, fmt.Errorf("cluster: sweep cancelled: %w", err)
	}
	// A failing sweep reports every broken cell, not just the first: a
	// parameter that breaks several (N, MHz) configurations shows its whole
	// footprint in one error.
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return cells, nil
}

// sweepUnits runs do(0..units-1) on up to GOMAXPROCS workers. Units are
// handed out in descending index, which on a Grid (Ns ascending) is the
// largest rank count first: the longest unit starts first instead of
// running alone at the end. Each unit writes only its own cells, so the
// fan-out is race-free and the results are scheduling-independent. A
// cancelled ctx stops the hand-out; units already dispatched run to
// completion.
func sweepUnits(ctx context.Context, units int, do func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > units {
		workers = units
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		//palint:ignore nakedgo -- sweep fan-out idiom: each unit writes only its own cell/err slots and wg.Wait publishes them to the caller
		go func() {
			defer wg.Done()
			for u := range next {
				do(u)
			}
		}()
	}
dispatch:
	for u := units - 1; u >= 0; u-- {
		// With a worker waiting, both cases of the select are ready and
		// it picks one at random, so a cancelled ctx could still start a
		// unit; checking first means it starts none.
		if ctx.Err() != nil {
			break
		}
		select {
		case next <- u:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
}

// runCell measures one grid cell. With a recording attached, the first
// cell of a unit captures the kernel's operation stream and later cells
// replay it; a recording the first run did not complete (the RunFunc
// failed, or never reached mpi.Run) falls back to direct execution so the
// per-cell error surface is unchanged.
func runCell(p Platform, run RunFunc, cell *Cell, errSlot *error, rec *mpi.Recording, replay bool) {
	w, err := p.World(cell.N, cell.MHz)
	if err != nil {
		*errSlot = fmt.Errorf("cluster: N=%d f=%gMHz: %w", cell.N, cell.MHz, err)
		return
	}
	var res *mpi.Result
	switch {
	case replay && rec.Complete():
		res, err = mpi.Replay(w, rec)
	case rec != nil && !replay:
		w.Record = rec
		res, err = run(w)
	default:
		res, err = run(w)
	}
	if err != nil {
		*errSlot = fmt.Errorf("cluster: N=%d f=%gMHz: %w", cell.N, cell.MHz, err)
		return
	}
	cell.Res = res
}
