package mpi

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"pasp/internal/machine"
	"pasp/internal/obs"
)

// pingPongAllocs measures the allocations of one full Run executing rounds
// ping-pong exchanges of vbytes-sized messages between two ranks; observe
// attaches a fresh metrics registry to each Run.
func pingPongAllocs(t *testing.T, rounds, vbytes int, observe bool) float64 {
	t.Helper()
	data := []float64{1, 2, 3, 4}
	return testing.AllocsPerRun(3, func() {
		w := testWorld(2, 600)
		if observe {
			w.Metrics = obs.NewRegistry()
		}
		_, err := Run(w, func(c *Ctx) error {
			for r := 0; r < rounds; r++ {
				if c.Rank() == 0 {
					if err := c.Send(1, 7, data, vbytes); err != nil {
						return err
					}
					got, err := c.Recv(1, 8)
					if err != nil {
						return err
					}
					c.Free(got)
				} else {
					got, err := c.Recv(0, 7)
					if err != nil {
						return err
					}
					c.Free(got)
					if err := c.Send(0, 8, data, vbytes); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestEagerPathAllocs pins the steady state of the eager Send/Recv path at
// zero allocations per round: heap slots, mailbox rings and the payload
// freelist all reach their working set during warm-up, after which
// parking, hand-off and delivery allocate nothing. Differencing two round
// counts cancels every per-Run fixed cost (goroutines, queues, result
// assembly). The only marginal allocations left are the trace log's
// amortized slice doublings (~2 across the extra 64 rounds); the 0.1
// budget admits those while rejecting any real per-message cost — before
// payload pooling each round allocated at least two payload snapshots.
func TestEagerPathAllocs(t *testing.T) {
	const r = 64
	base := pingPongAllocs(t, r, 32, false)
	double := pingPongAllocs(t, 2*r, 32, false)
	perRound := (double - base) / r
	if perRound > 0.1 {
		t.Errorf("eager ping-pong allocates %.2f allocs/round in steady state, want ~0 (trace-log growth only)", perRound)
	}
}

// TestEventEnginePingPongAllocs holds the engine's park-and-resume path to
// the same zero-per-round budget as TestEagerPathAllocs. A message above
// the rendezvous threshold parks its sender until the receiver reports the
// completion time, so every round blocks and wakes each rank at least
// once; the token hand-off, the run heap and the rendezvous reply must
// reuse their storage rather than allocate per round.
func TestEventEnginePingPongAllocs(t *testing.T) {
	const r = 64
	vbytes := testWorld(2, 600).Net.EagerBytes + 1
	base := pingPongAllocs(t, r, vbytes, false)
	double := pingPongAllocs(t, 2*r, vbytes, false)
	perRound := (double - base) / r
	if perRound > 0.1 {
		t.Errorf("rendezvous ping-pong allocates %.2f allocs/round in steady state, want ~0 (trace-log growth only)", perRound)
	}
}

// TestObsEnabledSteadyStateAllocs pins the observed hot path's allocation
// cost: per-round, an attached registry must stay within ≤ 1 alloc/round
// (the plain path holds 0.1), because steady-state recording is atomic
// histogram increments only. Differencing two round counts cancels the
// registry's fixed per-run cost (its metrics, filled once after the run)
// and isolates the marginal cost the lock-free design promises is zero.
func TestObsEnabledSteadyStateAllocs(t *testing.T) {
	const r = 64
	base := pingPongAllocs(t, r, 32, true)
	double := pingPongAllocs(t, 2*r, 32, true)
	perRound := (double - base) / r
	if perRound > 1.0 {
		t.Errorf("observed eager ping-pong allocates %.2f allocs/round, want ≤ 1 (recording must be alloc-free per message)", perRound)
	}
}

// alltoallAllocs measures the allocations of one Run in which n ranks
// perform rounds Alltoalls of two-element parts, freeing what they receive.
func alltoallAllocs(t *testing.T, n, rounds int) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		_, err := Run(testWorld(n, 600), func(c *Ctx) error {
			parts := make([][]float64, n)
			for d := range parts {
				parts[d] = []float64{1, 2}
			}
			for r := 0; r < rounds; r++ {
				outs, err := c.Alltoall(parts, 0)
				if err != nil {
					return err
				}
				for _, b := range outs {
					c.Free(b)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestAlltoallSteadyStateAllocs pins what an Alltoall allocates per rank
// once the buffer cache is warm: the caller-owned out header and the
// interface box of the deposit, two objects. The deposit's own header is
// reused from the rank's previous Alltoall, once the epoch rotation proves
// no reader is left (see Ctx.collective). Differencing two round counts
// cancels the per-Run fixed costs; the 0.1 slack admits the trace log's
// amortized growth.
func TestAlltoallSteadyStateAllocs(t *testing.T) {
	const n, r = 4, 64
	base := alltoallAllocs(t, n, r)
	double := alltoallAllocs(t, n, 2*r)
	perCall := (double - base) / (n * r)
	if perCall > 2.1 {
		t.Errorf("Alltoall allocates %.2f objects per rank per call in steady state, want 2 (out header and deposit box)", perCall)
	}
}

// TestRecOpIsCompact pins the tape's op layout: at most 64 bytes, all of
// them integers, so an op array holds nothing the garbage collector scans.
func TestRecOpIsCompact(t *testing.T) {
	if size := unsafe.Sizeof(recOp{}); size > 64 {
		t.Errorf("recOp is %d bytes, want at most 64", size)
	}
	typ := reflect.TypeOf(recOp{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() < reflect.Int || f.Type.Kind() > reflect.Uint64 {
			t.Errorf("recOp.%s is a %s, want an integer", f.Name, f.Type)
		}
	}
}

// tapeLoopBytes returns the bytes one two-rank Run of rounds
// phase/compute/send/recv rounds allocates, and the operations it
// records when record is set.
func tapeLoopBytes(t *testing.T, rounds int, record bool) (bytes uint64, ops int) {
	t.Helper()
	w := testWorld(2, 600)
	rec := NewRecording()
	if record {
		w.Record = rec
	}
	work := machine.W(1e4, 1e3, 0, 0)
	data := []float64{1, 2, 3, 4}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Run(w, func(c *Ctx) error {
		peer := 1 - c.Rank()
		for r := 0; r < rounds; r++ {
			c.SetPhase("compute")
			if err := c.Compute(work); err != nil {
				return err
			}
			c.SetPhase("exchange")
			if err := c.Send(peer, 1, data, 0); err != nil {
				return err
			}
			got, err := c.Recv(peer, 1)
			if err != nil {
				return err
			}
			c.Free(got)
		}
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if record {
		ops = rec.Ops(0) + rec.Ops(1)
	}
	return after.TotalAlloc - before.TotalAlloc, ops
}

// TestTapeBytesPerOp pins the tape's cost: the bytes a recorded run
// allocates beyond an unrecorded one, per recorded operation. Growing a
// slice by append allocates about four times its final size in all, so
// this loop's 56-byte ops and their compute mixes come to about 240 B per
// op; the bound admits that growth policy, not a larger op. Differencing
// two round counts cancels the fixed costs, such as the recording's
// per-rank tables.
func TestTapeBytesPerOp(t *testing.T) {
	const r = 512
	cost := func(rounds int) (float64, int) {
		plain, _ := tapeLoopBytes(t, rounds, false)
		recorded, ops := tapeLoopBytes(t, rounds, true)
		return float64(recorded) - float64(plain), ops
	}
	b1, ops1 := cost(r)
	b2, ops2 := cost(2 * r)
	perOp := (b2 - b1) / float64(ops2-ops1)
	t.Logf("%.0f B per recorded op", perOp)
	if perOp > 448 {
		t.Errorf("a recorded run allocates %.0f B per recorded op beyond an unrecorded one, want at most 448", perOp)
	}
}
