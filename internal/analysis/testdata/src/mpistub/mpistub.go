// Package mpi stubs the simulator runtime for the ownfreempi testdata.
// ownfree classifies calls duck-typed — package named "mpi", receiver type
// Ctx, MPI-shaped method names — so the seeded package imports this stub
// instead of the real runtime and stays self-contained. The method bodies
// are irrelevant: the pass never descends into an mpi package.
package mpi

// World configures a stub job; N is the rank count.
type World struct {
	N int
}

// Result mirrors the runtime's per-run summary.
type Result struct{}

// Op selects a reduction operator.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
)

// Ctx is one rank's stub handle.
type Ctx struct {
	rank, n int
}

// Run launches the stub job.
func Run(w World, body func(*Ctx) error) (*Result, error) {
	if err := body(&Ctx{n: w.N}); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// Rank returns this rank's index.
func (c *Ctx) Rank() int { return c.rank }

// Size returns the job's rank count.
func (c *Ctx) Size() int { return c.n }

// SetPhase labels subsequent events.
func (c *Ctx) SetPhase(name string) { _ = name }

// Compute bills local work.
func (c *Ctx) Compute(flops float64) error { return nil }

// Free recycles a payload buffer.
func (c *Ctx) Free(buf []float64) { _ = buf }

// Send transmits data to dst.
func (c *Ctx) Send(dst, tag int, data []float64, vbytes int) error { return nil }

// Recv receives the next message from src.
func (c *Ctx) Recv(src, tag int) ([]float64, error) { return nil, nil }

// SendRecv exchanges messages with two peers.
func (c *Ctx) SendRecv(dst, src, tag int, data []float64, vbytes int) ([]float64, error) {
	return nil, nil
}

// Barrier blocks until every rank arrives.
func (c *Ctx) Barrier() error { return nil }

// Allreduce combines every rank's vector.
func (c *Ctx) Allreduce(data []float64, op Op, vbytes int) ([]float64, error) { return data, nil }

// Alltoall performs the personalized all-to-all exchange.
func (c *Ctx) Alltoall(parts [][]float64, vbytes int) ([][]float64, error) { return parts, nil }

// Allgather concatenates every rank's vector.
func (c *Ctx) Allgather(data []float64, vbytes int) ([][]float64, error) {
	return [][]float64{data}, nil
}
