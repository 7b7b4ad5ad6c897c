package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pasp/internal/faults"
	"pasp/internal/machine"
	"pasp/internal/mpi"
	"pasp/internal/npb"
)

func TestPentiumMValid(t *testing.T) {
	if err := PentiumM().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorldBounds(t *testing.T) {
	p := PentiumM()
	if _, err := p.World(0, 600); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := p.World(17, 600); err == nil {
		t.Error("17 nodes accepted on a 16-node cluster")
	}
	if _, err := p.World(4, 700); err == nil {
		t.Error("unavailable frequency accepted")
	}
	w, err := p.World(4, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if w.State.Voltage != 1.436 {
		t.Errorf("voltage %g, want 1.436 (Table 2)", w.State.Voltage)
	}
}

func TestPaperGrid(t *testing.T) {
	g := PaperGrid()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Ns) != 5 || len(g.MHz) != 5 {
		t.Errorf("grid is %dx%d, want 5x5", len(g.Ns), len(g.MHz))
	}
	if g.Ns[4] != 16 || g.MHz[0] != 600 {
		t.Error("grid corners wrong")
	}
}

func TestGridValidateRejects(t *testing.T) {
	bad := []Grid{
		{},
		{Ns: []int{1}, MHz: nil},
		{Ns: []int{1, 1}, MHz: []float64{600}},
		{Ns: []int{1, 2}, MHz: []float64{800, 600}},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad grid %d accepted", i)
		}
	}
}

func TestGridHas(t *testing.T) {
	g := Grid{Ns: []int{1, 2, 4}, MHz: []float64{600, 1400}}
	for _, tc := range []struct {
		n    int
		mhz  float64
		want bool
	}{
		{1, 600, true},
		{4, 1400, true},
		{2, 600, true},
		{3, 600, false},         // N between grid rows
		{8, 1400, false},        // N past the grid
		{2, 1000, false},        // a gear the grid does not sweep
		{2, 600.0000001, false}, // frequencies match exactly
		{0, 0, false},
	} {
		if got := g.Has(tc.n, tc.mhz); got != tc.want {
			t.Errorf("Has(%d, %g) = %v, want %v", tc.n, tc.mhz, got, tc.want)
		}
	}
	if (Grid{}).Has(1, 600) {
		t.Error("empty grid has a cell")
	}
}

func TestSweepRunsEveryCell(t *testing.T) {
	p := PentiumM()
	g := Grid{Ns: []int{1, 2, 4}, MHz: []float64{600, 1400}}
	cells, err := Sweep(context.Background(), p, g, func(w mpi.World) (*mpi.Result, error) {
		return mpi.Run(w, func(c *mpi.Ctx) error {
			return c.Compute(machine.W(1e6*float64(c.Size()), 0, 0, 0))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	seen := map[[2]float64]bool{}
	for _, c := range cells {
		if c.Res == nil {
			t.Fatalf("cell N=%d f=%g has no result", c.N, c.MHz)
		}
		if c.Res.Seconds <= 0 {
			t.Errorf("cell N=%d f=%g has zero time", c.N, c.MHz)
		}
		seen[[2]float64{float64(c.N), c.MHz}] = true
	}
	if len(seen) != 6 {
		t.Errorf("duplicate cells: %v", seen)
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	boom := errors.New("kernel failed")
	_, err := Sweep(context.Background(), PentiumM(), Grid{Ns: []int{1}, MHz: []float64{600}}, func(w mpi.World) (*mpi.Result, error) {
		return nil, boom
	})
	if err == nil || !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

// With one worker, the sweep's hand-out order is the order cells run in:
// the largest rank count, the longest unit, goes first.
func TestSweepStartsLargestRankCountFirst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mu sync.Mutex
	var order []int
	_, err := Sweep(context.Background(), PentiumM(), Grid{Ns: []int{1, 2, 4}, MHz: []float64{600}}, func(w mpi.World) (*mpi.Result, error) {
		mu.Lock()
		order = append(order, w.N)
		mu.Unlock()
		return mpi.Run(w, func(c *mpi.Ctx) error {
			return c.Compute(machine.W(1e6, 0, 0, 0))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 2, 1}; !slices.Equal(order, want) {
		t.Errorf("cells ran at N = %v, want %v", order, want)
	}
}

// A sweep on a context cancelled before the call starts no cell, whether
// its units record and replay (a multi-gear grid) or run one cell each (a
// single-gear grid). With a worker already waiting, the dispatch select
// once chose at random between handing out a unit and seeing the
// cancellation: a few dead-context sweeps in a thousand ran a cell.
func TestSweepCancelledContextRunsNoCell(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	run := func(w mpi.World) (*mpi.Result, error) {
		calls.Add(1)
		return nil, errors.New("cell ran on a cancelled context")
	}
	for _, g := range []Grid{
		{Ns: []int{1, 2, 4, 8}, MHz: []float64{600}},
		{Ns: []int{1, 2, 4, 8}, MHz: []float64{600, 1400}},
	} {
		const sweeps = 20000
		for i := 0; i < sweeps; i++ {
			if _, err := Sweep(ctx, PentiumM(), g, run); !errors.Is(err, context.Canceled) {
				t.Fatalf("%d-gear grid: Sweep on a cancelled context returned %v, want context.Canceled", len(g.MHz), err)
			}
		}
		if n := calls.Swap(0); n != 0 {
			t.Errorf("%d-gear grid: %d of %d cancelled sweeps ran a cell", len(g.MHz), n, sweeps)
		}
	}
}

func TestSweepDeterministicAcrossRuns(t *testing.T) {
	p := PentiumM()
	g := Grid{Ns: []int{1, 2}, MHz: []float64{600, 1000}}
	run := func() []float64 {
		cells, err := Sweep(context.Background(), p, g, func(w mpi.World) (*mpi.Result, error) {
			return mpi.Run(w, func(c *mpi.Ctx) error {
				if err := c.Compute(machine.W(1e7, 1e6, 0, 1e5)); err != nil {
					return err
				}
				return c.Barrier()
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(cells))
		for i, c := range cells {
			out[i] = c.Res.Seconds
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("cell %d diverges across sweeps: %g vs %g", i, a[i], b[i])
		}
	}
}

// sweepBytes runs one sweep of a small chaos-enabled campaign and folds
// every cell into one byte string: the full timeline CSV plus the exact
// time/energy of each cell, in grid order.
func sweepBytes(t *testing.T, p Platform, g Grid) string {
	t.Helper()
	cells, err := Sweep(context.Background(), p, g, func(w mpi.World) (*mpi.Result, error) {
		return mpi.Run(w, func(c *mpi.Ctx) error {
			c.SetPhase("work")
			if err := c.Compute(machine.W(1e6, 1e5, 0, 1e4)); err != nil {
				return err
			}
			if c.Size() > 1 {
				peer := (c.Rank() + 1) % c.Size()
				if err := c.Send(peer, 1, []float64{float64(c.Rank())}, 8); err != nil {
					return err
				}
				got, err := c.Recv((c.Rank()+c.Size()-1)%c.Size(), 1)
				if err != nil {
					return err
				}
				c.Free(got)
			}
			_, err := c.Allreduce([]float64{1}, mpi.Sum, 8)
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, "N=%d f=%g %.17g s %.17g J\n%s", c.N, c.MHz, c.Res.Seconds, c.Res.Joules, c.Res.Trace.TimelineCSV())
	}
	return b.String()
}

// TestSweepGOMAXPROCSDeterminism pins the campaign worker pool's
// scheduling independence: the same sweep must produce the same bytes with
// the pool serialized (GOMAXPROCS=1), at a modest width and oversubscribed
// (GOMAXPROCS=8 against 3 sweep units), on a multi-gear grid, whose units
// record and replay the frequency axis, and on a single-gear grid, whose
// units run their one cell directly. Work distribution may change; bytes
// may not.
func TestSweepGOMAXPROCSDeterminism(t *testing.T) {
	p := PentiumM()
	p.Faults = faults.Config{Seed: 11, LatencyJitterFrac: 0.5, DropProb: 0.05}
	for _, g := range []Grid{
		{Ns: []int{1, 2, 4}, MHz: []float64{600, 1000, 1400}},
		{Ns: []int{1, 2, 4}, MHz: []float64{1000}},
	} {
		base := sweepBytes(t, p, g)
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got := sweepBytes(t, p, g)
			runtime.GOMAXPROCS(prev)
			if got != base {
				t.Errorf("%d-gear grid: sweep bytes changed under GOMAXPROCS=%d", len(g.MHz), procs)
			}
		}
	}
}

// TestSweepPlatformsRecordsOncePerRankCount sweeps the quick suite's FT
// class over three fault-config platforms, the full chaos mix at
// magnitudes 0, 1 and 2, at N ∈ {2, 4} and one gear: the kernel runs once
// per rank count, and every cell equals the same cell of a one-platform
// Sweep, whose single-gear units run directly, in every Result field and
// in its TimelineCSV bytes. A platform whose cells fail is named by its
// index in the list.
func TestSweepPlatformsRecordsOncePerRankCount(t *testing.T) {
	ft := npb.FT{Nx: 16, Ny: 16, Nz: 16, Iters: 2, Scale: 16}
	var calls atomic.Int64
	run := func(w mpi.World) (*mpi.Result, error) {
		calls.Add(1)
		_, res, err := ft.Run(w)
		return res, err
	}
	mix := faults.Config{Seed: 11, LatencyJitterFrac: 1, DropProb: 0.01, DegradeProb: 0.05,
		DegradeFactor: 2, StragglerFrac: 0.1, StragglerSlowdown: 1.5}
	var ps []Platform
	for _, m := range []float64{0, 1, 2} {
		p := PentiumM()
		p.Faults = mix.Scale(m)
		ps = append(ps, p)
	}
	g := Grid{Ns: []int{2, 4}, MHz: []float64{600}}
	ctx := context.Background()
	rows, err := SweepPlatforms(ctx, ps, g, run)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != int64(len(g.Ns)) {
		t.Errorf("the kernel ran %d times for %d rank counts, want once per rank count", n, len(g.Ns))
	}
	for i, p := range ps {
		want, err := Sweep(ctx, p, g, run)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows[i]) != len(want) {
			t.Fatalf("platform %d: %d cells, a one-platform sweep %d", i, len(rows[i]), len(want))
		}
		for c, w := range want {
			got := rows[i][c]
			label := fmt.Sprintf("platform %d N=%d f=%g", i, w.N, w.MHz)
			if got.N != w.N || got.MHz != w.MHz {
				t.Fatalf("%s: cell is N=%d f=%g", label, got.N, got.MHz)
			}
			if got.Res.Trace.TimelineCSV() != w.Res.Trace.TimelineCSV() {
				t.Errorf("%s: timelines differ", label)
			}
			a, b := *got.Res, *w.Res
			a.Trace, b.Trace = nil, nil
			if math.Float64bits(a.Seconds) != math.Float64bits(b.Seconds) || !reflect.DeepEqual(a, b) {
				t.Errorf("%s: replayed %+v, direct %+v", label, a, b)
			}
		}
	}
	small := ps[2]
	small.MaxNodes = 2
	_, err = SweepPlatforms(ctx, []Platform{ps[0], ps[1], small}, g, run)
	var pe *PlatformError
	if !errors.As(err, &pe) || pe.Index != 2 || !strings.Contains(err.Error(), "N=4") {
		t.Errorf("a platform too small for N=4 failed the sweep with %v, want a *PlatformError for platform 2 naming N=4", err)
	}
}
