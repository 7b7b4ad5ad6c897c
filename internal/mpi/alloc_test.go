package mpi

import (
	"testing"

	"pasp/internal/obs"
)

// pingPongAllocs measures the allocations of one full Run executing rounds
// ping-pong exchanges of vbytes-sized messages between two ranks; observe
// attaches a fresh observability recorder to each Run.
func pingPongAllocs(t *testing.T, rounds, vbytes int, observe bool) float64 {
	t.Helper()
	data := []float64{1, 2, 3, 4}
	return testing.AllocsPerRun(3, func() {
		w := testWorld(2, 600)
		if observe {
			w.Obs = obs.NewRecorder()
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

// TestObsEnabledSteadyStateAllocs pins the recording hot path's allocation
// cost: per-round, an *enabled* recorder must stay within the same ≤1
// alloc/round budget as the plain path, because steady-state recording is
// atomic histogram increments only — spans allocate on SetPhase, not per
// message. Differencing two round counts cancels the recorder's fixed
// per-run cost (rank logs, registry, the initial phase span) and isolates
// the marginal cost the lock-free design promises is zero.
func TestObsEnabledSteadyStateAllocs(t *testing.T) {
	const r = 64
	base := pingPongAllocs(t, r, 32, true)
	double := pingPongAllocs(t, 2*r, 32, true)
	perRound := (double - base) / r
	if perRound > 1.0 {
		t.Errorf("observed eager ping-pong allocates %.2f allocs/round, want ≤ 1 (recording must be alloc-free per message)", perRound)
	}
}
