// Customkernel: use the virtual-time MPI runtime directly to model your
// own parallel application — here a 1-D Jacobi heat solver with halo
// exchanges — then fit the power-aware speedup model to it and locate its
// energy-delay sweet spot. This is the workflow a user follows for codes
// outside the NAS suite.
//
//	go run ./examples/customkernel
package main

import (
	"context"
	"fmt"
	"log"

	"pasp/internal/cluster"
	"pasp/internal/core"
	"pasp/internal/machine"
	"pasp/internal/mpi"
)

// jacobi runs iters sweeps of a 1-D three-point stencil over cells points
// distributed across the ranks, exchanging one-point halos each sweep.
func jacobi(cells, iters int) func(c *mpi.Ctx) error {
	return func(c *mpi.Ctx) error {
		n, rank := c.Size(), c.Rank()
		local := cells / n
		// The local field with two halo points; real math, verifiable.
		u := make([]float64, local+2)
		for i := range u {
			u[i] = float64(rank*local + i)
		}
		next := make([]float64, local+2)
		for it := 0; it < iters; it++ {
			c.SetPhase("halo")
			if rank > 0 {
				got, err := c.SendRecv(rank-1, rank-1, it, []float64{u[1]}, 0)
				if err != nil {
					return err
				}
				u[0] = got[0]
			}
			if rank < n-1 {
				got, err := c.SendRecv(rank+1, rank+1, it, []float64{u[local]}, 0)
				if err != nil {
					return err
				}
				u[local+1] = got[0]
			}
			c.SetPhase("sweep")
			for i := 1; i <= local; i++ {
				next[i] = (u[i-1] + u[i] + u[i+1]) / 3
			}
			u, next = next, u
			// Account the sweep: ~6 instructions per point, a third of them
			// memory-streaming at this footprint.
			pts := float64(local)
			if err := c.Compute(machine.W(3*pts, 2*pts, 0, pts*0.25)); err != nil {
				return err
			}
		}
		c.SetPhase("norm")
		sum := 0.0
		for i := 1; i <= local; i++ {
			sum += u[i]
		}
		if _, err := c.Allreduce([]float64{sum}, mpi.Sum, 0); err != nil {
			return err
		}
		return nil
	}
}

func main() {
	platform := cluster.PentiumM()
	const cells, iters = 1 << 22, 40

	// Sweep the paper's 5x5 grid: the solver runs once per processor count
	// and the other frequencies replay its recorded operation stream.
	swept, err := cluster.Sweep(context.Background(), platform, cluster.PaperGrid(), func(w mpi.World) (*mpi.Result, error) {
		return mpi.Run(w, jacobi(cells, iters))
	})
	if err != nil {
		log.Fatal(err)
	}
	meas := core.NewMeasurements()
	for _, c := range swept {
		meas.SetTime(c.N, c.MHz, c.Res.Seconds)
		meas.SetEnergy(c.N, c.MHz, c.Res.Joules)
	}

	sp, err := core.FitSP(meas)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Jacobi heat solver on the power-aware cluster:")
	for _, n := range []int{2, 8, 16} {
		pred, err := sp.PredictSpeedup(n, 1400)
		if err != nil {
			log.Fatal(err)
		}
		meas1400, err := meas.Speedup(n, 1400)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  N=%2d at 1400 MHz: measured speedup %5.2f, SP model %5.2f\n",
			n, meas1400, pred)
	}
	best, err := core.SweetSpot(meas, core.MinEDP, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  EDP sweet spot: %v (%.2f s, %.0f J)\n", best.Config, best.Seconds, best.Joules)
}
