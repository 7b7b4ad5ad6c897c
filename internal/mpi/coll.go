package mpi

import (
	"fmt"
	"math"

	"pasp/internal/trace"
)

// Op selects the combining operator of a reduction.
type Op int

const (
	// Sum adds elementwise.
	Sum Op = iota
	// Max takes the elementwise maximum.
	Max
)

// log2ceil returns ⌈log₂ n⌉ for n ≥ 1.
func log2ceil(n int) int {
	r := 0
	for p := 1; p < n; p <<= 1 {
		r++
	}
	return r
}

// collective synchronizes all ranks, then advances every clock to
// max(entry clocks) + cost, the maximum the epoch computed once as ranks
// arrived (see engine.deposit). It returns the snapshot so callers can
// combine payloads. Payloads must be private to the snapshot (copied by the
// caller, via snapshotPayload so the copies draw on the rank's buffer
// cache). All collectives are modelled as synchronizing, which matches the
// dense patterns the NAS kernels use (alltoall, allreduce, barrier).
//
// Every reader copies or combines a deposit before its own collective call
// returns, so no snapshot reference outlives the epoch. The deposit is
// parked on the Ctx and reclaimed into the buffer cache one epoch later —
// by the same argument that lets the engine rotate two snapshot containers
// (see engine.deposit), a rank returns from epoch k+1's synchronization
// only after every rank finished reading epoch k, so the parked buffers
// provably have no readers left. The same holds for an Alltoall deposit's
// header, which readers index during the epoch but never keep: it is
// cleared and kept as the rank's partsHeader for its next Alltoall deposit.
func (c *Ctx) collective(payload any, cost float64) (*collSnapshot, error) {
	snap, err := c.eng.deposit(c, payload)
	if err != nil {
		return nil, err
	}
	if c.collFree != nil {
		c.Free(c.collFree)
		c.collFree = nil
	}
	if c.collFreeParts != nil {
		for _, p := range c.collFreeParts {
			c.Free(p)
		}
		clear(c.collFreeParts)
		c.partsHeader, c.collFreeParts = c.collFreeParts, nil
	}
	switch p := payload.(type) {
	case []float64:
		c.collFree = p
	case [][]float64:
		c.collFreeParts = p
	}
	if err := c.advanceComm(snap.entry + cost); err != nil {
		return nil, err
	}
	// Each rank draws its own collective perturbation, so jitter desyncs
	// the ranks exactly as a noisy fabric would; the next collective's
	// entry max re-synchronizes on the slowest (most-jittered) rank.
	if c.faults != nil {
		if extra := c.faults.Collective(cost); extra > 0 {
			if err := c.advanceFault(extra, trace.Fault, pollUtil); err != nil {
				return nil, err
			}
		}
	}
	return snap, nil
}

// Barrier blocks until every rank arrives; it costs a recursive-doubling
// round trip of empty messages.
func (c *Ctx) Barrier() error {
	if c.rec != nil {
		c.rec.add(recOp{kind: opBarrier})
	}
	n := c.Size()
	if n == 1 {
		return nil
	}
	net := &c.eng.w.Net
	rounds := log2ceil(n)
	c.noteMsgs(rounds, 0)
	cost := float64(rounds) * (2*c.cpuOverhead(0) + net.LatencySec)
	_, err := c.collective(nil, cost)
	return err
}

// collBytes returns the timed size of a payload with an optional virtual
// override.
func collBytes(data []float64, vbytes int) int {
	if vbytes > 0 {
		return vbytes
	}
	return 8 * len(data)
}

// reduce returns the epoch's reduction of every rank's deposit with op,
// combined in rank order so the floating-point result is deterministic.
// The epoch's first reader computes it into the snapshot's buffer, so an
// epoch pays for one O(N·len) reduction rather than one per rank, and
// every reader gets the same answer. A reader passing a different op than
// the first one fails, since the ranks disagree on what the collective
// computes. The slice is the snapshot's buffer, reused two epochs later:
// callers copy it before handing it out.
func (s *collSnapshot) reduce(op Op) ([]float64, error) {
	if !s.reduced {
		s.reduced, s.redOp = true, op
		s.red, s.redErr = reduceInto(s.red[:0], s.payloads, op)
	}
	if s.redErr != nil {
		return nil, s.redErr
	}
	if op != s.redOp {
		return nil, fmt.Errorf("mpi: reduce op mismatch: this rank passes op %d, the epoch was reduced with op %d", op, s.redOp)
	}
	return s.red, nil
}

// reduceInto combines the deposited vectors into out (empty, reused for
// its capacity) in rank order. Every deposit must have rank 0's length.
func reduceInto(out []float64, payloads []any, op Op) ([]float64, error) {
	if op != Sum && op != Max {
		return nil, fmt.Errorf("mpi: unknown reduce op %d", op)
	}
	for rank, p := range payloads {
		v, ok := p.([]float64)
		if !ok {
			return nil, fmt.Errorf("mpi: reduce payload from rank %d is %T, want []float64", rank, p)
		}
		if rank == 0 {
			out = append(out, v...)
			continue
		}
		if len(v) != len(out) {
			return nil, fmt.Errorf("mpi: reduce length mismatch: rank %d has %d elements, rank 0 has %d", rank, len(v), len(out))
		}
		switch op {
		case Sum:
			for i := range out {
				out[i] += v[i]
			}
		case Max:
			for i := range out {
				out[i] = math.Max(out[i], v[i])
			}
		}
	}
	return out, nil
}

// reduceCost is the recursive-doubling reduction cost: log₂n rounds, all n
// ranks exchanging and combining b bytes per round.
func (c *Ctx) reduceCost(b int) float64 {
	n := c.Size()
	net := &c.eng.w.Net
	rounds := float64(log2ceil(n))
	c.noteMsgs(log2ceil(n), b)
	perRound := 2*c.cpuOverhead(b) + net.LatencySec +
		net.ContendedWireTime(b, n) + ReduceInsPerByte*float64(b)/c.hz()
	return rounds * perRound
}

// Allreduce combines every rank's vector with op and returns the result on
// all ranks. vbytes, when positive, overrides the timed payload size. Every
// rank must pass the same op and a vector of rank 0's length; otherwise
// the call fails. The epoch reduces once, and each rank returns its own
// copy of the result, which the caller owns and may overwrite or Free.
func (c *Ctx) Allreduce(data []float64, op Op, vbytes int) ([]float64, error) {
	if c.rec != nil {
		c.rec.add(recOp{kind: opAllreduce, ref: int(op), nlen: len(data), vbytes: vbytes})
	}
	if c.Size() == 1 {
		return append([]float64(nil), data...), nil
	}
	snap, err := c.collective(c.snapshotPayload(data), c.reduceCost(collBytes(data, vbytes)))
	if err != nil {
		return nil, err
	}
	red, err := snap.reduce(op)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), red...), nil
}

// Alltoall performs the personalized all-to-all exchange at the heart of
// FT's transpose: parts[d] goes to rank d (parts[rank] stays local), and the
// result's element s is the block received from rank s. vbytesPerPair, when
// positive, overrides the timed per-pair block size.
//
// The cost follows the pairwise-exchange algorithm: n−1 rounds in which all
// n ports are active simultaneously, so per-flow bandwidth degrades once the
// fabric's flow-concurrency limit is exceeded — the mechanism that makes
// FT's speedup flatten on Fast Ethernet.
func (c *Ctx) Alltoall(parts [][]float64, vbytesPerPair int) ([][]float64, error) {
	n := c.Size()
	if len(parts) != n {
		return nil, fmt.Errorf("mpi: alltoall needs %d parts, got %d", n, len(parts))
	}
	if c.rec != nil {
		c.rec.addAlltoall(parts, vbytesPerPair)
	}
	if n == 1 {
		return [][]float64{c.snapshotPayload(parts[0])}, nil
	}
	// Time the exchange by its largest pairwise block (the round that
	// limits the pairwise-exchange algorithm); an explicit override wins.
	b := vbytesPerPair
	if b <= 0 {
		for d, p := range parts {
			if d != c.rank && 8*len(p) > b {
				b = 8 * len(p)
			}
		}
	}
	c.noteMsgs(n-1, b)
	net := &c.eng.w.Net
	perRound := 2*c.cpuOverhead(b) + net.LatencySec + net.ContendedWireTime(b, n)
	cost := float64(n-1) * perRound
	// Deposit copies are private to the snapshot while the epoch is live;
	// collective() parks them and returns them to this rank's buffer cache
	// once the next epoch proves all readers are gone. Their header comes
	// back too, for this rank's next Alltoall: readers only index it during
	// the epoch, so engine.deposit's rotation argument frees it with the
	// parts. The out header and copies below are exclusively caller-owned
	// from the moment they are made.
	deposit := c.partsHeader
	c.partsHeader = nil
	if deposit == nil {
		deposit = make([][]float64, n)
	}
	for d := range parts {
		deposit[d] = c.snapshotPayload(parts[d])
	}
	snap, err := c.collective(deposit, cost)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, n)
	for s, p := range snap.payloads {
		sp, ok := p.([][]float64)
		if !ok {
			return nil, fmt.Errorf("mpi: alltoall payload from rank %d is %T", s, p)
		}
		if len(sp) != n {
			return nil, fmt.Errorf("mpi: alltoall rank %d deposited %d parts", s, len(sp))
		}
		out[s] = c.snapshotPayload(sp[c.rank])
	}
	return out, nil
}

// Allgather concatenates every rank's vector; the result's element s is
// rank s's contribution. The cost follows the ring algorithm: n−1 rounds of
// b bytes with all ports active.
func (c *Ctx) Allgather(data []float64, vbytes int) ([][]float64, error) {
	if c.rec != nil {
		c.rec.add(recOp{kind: opAllgather, nlen: len(data), vbytes: vbytes})
	}
	n := c.Size()
	if n == 1 {
		return [][]float64{c.snapshotPayload(data)}, nil
	}
	b := collBytes(data, vbytes)
	c.noteMsgs(n-1, b)
	net := &c.eng.w.Net
	perRound := 2*c.cpuOverhead(b) + net.LatencySec + net.ContendedWireTime(b, n)
	cost := float64(n-1) * perRound
	snap, err := c.collective(c.snapshotPayload(data), cost)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, n)
	for s, p := range snap.payloads {
		v, ok := p.([]float64)
		if !ok {
			return nil, fmt.Errorf("mpi: allgather payload from rank %d is %T", s, p)
		}
		out[s] = c.snapshotPayload(v)
	}
	return out, nil
}
