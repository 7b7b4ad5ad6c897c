// Package ownfreempi seeds ownfree's violations on the runtime's own
// vocabulary, through the mpi stub: an Allreduce result, caller-owned like
// every producer's, freed twice and read after Free — next to the clean
// read-then-Free idiom.
package ownfreempi

import mpi "pasp/internal/analysis/testdata/src/mpistub"

func doubleFreeAllreduce(c *mpi.Ctx, mine []float64) {
	sum, _ := c.Allreduce(mine, mpi.Sum, 8)
	c.Free(sum)
	c.Free(sum) // want: second Free
}

func readAfterFreeAllreduce(c *mpi.Ctx, mine []float64) float64 {
	sum, _ := c.Allreduce(mine, mpi.Max, 8)
	c.Free(sum)
	return sum[0] // want: read after Free
}

func readThenFreeAllreduce(c *mpi.Ctx, mine []float64) float64 { // clean: one Free, after the read
	sum, _ := c.Allreduce(mine, mpi.Sum, 8)
	v := sum[0]
	c.Free(sum)
	return v
}
