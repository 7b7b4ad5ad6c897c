package mpi

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pasp/internal/machine"
	"pasp/internal/papi"
	"pasp/internal/power"
	"pasp/internal/simnet"
	"pasp/internal/stats"
	"pasp/internal/units"
)

func testWorld(n int, mhz float64) World {
	return World{
		N:     n,
		Net:   simnet.FastEthernet(),
		Mach:  machine.PentiumM(),
		Prof:  power.PentiumM(),
		State: testState(mhz),
	}
}

// testState returns the Pentium M operating point at mhz.
func testState(mhz float64) power.PState {
	st, err := power.PentiumM().StateAt(units.MHz(mhz))
	if err != nil {
		panic(err)
	}
	return st
}

func TestRunValidates(t *testing.T) {
	w := testWorld(2, 600)
	w.N = 0
	if _, err := Run(w, func(c *Ctx) error { return nil }); err == nil {
		t.Error("Run with N=0 succeeded, want error")
	}
}

func TestSingleRankCompute(t *testing.T) {
	w := testWorld(1, 600)
	work := machine.W(6e8, 0, 0, 0) // 6e8 reg instructions at 1 cycle = 1 s at 600 MHz
	res, err := Run(w, func(c *Ctx) error { return c.Compute(work) })
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(res.Seconds, 1.0, 1e-9) {
		t.Errorf("Seconds = %g, want 1.0", res.Seconds)
	}
	if got := res.Counters.Get(0); got != 6e8 { // TOT_INS
		t.Errorf("TOT_INS = %g, want 6e8", got)
	}
	wantJ := float64(w.Prof.NodePower(w.State, 1)) * 1.0
	if !stats.AlmostEqual(res.Joules, wantJ, 1e-9) {
		t.Errorf("Joules = %g, want %g", res.Joules, wantJ)
	}
	if res.EDP() <= 0 || res.AvgWatts() <= 0 {
		t.Error("derived metrics should be positive")
	}
}

func TestComputeFrequencyScaling(t *testing.T) {
	work := machine.W(1e9, 1e9, 0, 0)
	run := func(mhz float64) float64 {
		res, err := Run(testWorld(1, mhz), func(c *Ctx) error { return c.Compute(work) })
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	slow, fast := run(600), run(1400)
	if !stats.AlmostEqual(slow/fast, 1400.0/600.0, 1e-9) {
		t.Errorf("pure ON-chip scaling = %g, want %g", slow/fast, 1400.0/600.0)
	}
}

func TestComputeRejectsNegativeWork(t *testing.T) {
	_, err := Run(testWorld(1, 600), func(c *Ctx) error {
		return c.Compute(machine.W(-1, 0, 0, 0))
	})
	if err == nil {
		t.Error("negative work accepted")
	}
}

func TestSendRecvDelivery(t *testing.T) {
	w := testWorld(2, 600)
	var got []float64
	var recvClock float64
	_, err := Run(w, func(c *Ctx) error {
		if c.Rank() == 0 {
			return c.Send(1, 7, []float64{1, 2, 3}, 0)
		}
		v, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		got = v
		recvClock = c.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Errorf("payload = %v", got)
	}
	// Receiver's clock must include at least latency + wire + overheads.
	min := w.Net.LatencySec + w.Net.WireTime(24)
	if recvClock < min {
		t.Errorf("recv completed at %g, want ≥ %g", recvClock, min)
	}
}

func TestPerPairFIFO(t *testing.T) {
	_, err := Run(testWorld(2, 600), func(c *Ctx) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []float64{10}, 0); err != nil {
				return err
			}
			return c.Send(1, 2, []float64{20}, 0)
		}
		a, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		b, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		if a[0] != 10 || b[0] != 20 {
			return fmt.Errorf("order violated: %v %v", a, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTagMismatchAborts: a receive that finds the wrong tag fails the job
// with the mismatch itself, not with the abort it induces.
func TestTagMismatchAborts(t *testing.T) {
	_, err := Run(testWorld(2, 600), func(c *Ctx) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, nil, 100)
		}
		_, err := c.Recv(0, 2)
		return err
	})
	if err == nil || errors.Is(err, ErrAborted) {
		t.Fatalf("tag mismatch returned %v, want the mismatch error", err)
	}
}

func TestSelfAndRangeChecks(t *testing.T) {
	_, err := Run(testWorld(2, 600), func(c *Ctx) error {
		if c.Rank() == 0 {
			if err := c.Send(0, 0, nil, 8); err == nil {
				return errors.New("self-send accepted")
			}
			if err := c.Send(5, 0, nil, 8); err == nil {
				return errors.New("out-of-range send accepted")
			}
			if _, err := c.Recv(-1, 0); err == nil {
				return errors.New("out-of-range recv accepted")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualBytesSlowDownTransfer(t *testing.T) {
	run := func(vbytes int) float64 {
		res, err := Run(testWorld(2, 600), func(c *Ctx) error {
			if c.Rank() == 0 {
				return c.Send(1, 0, []float64{1}, vbytes)
			}
			_, err := c.Recv(0, 0)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	small, large := run(8), run(32<<10)
	if large <= small {
		t.Errorf("32KB virtual message (%g s) not slower than 8B (%g s)", large, small)
	}
}

func TestRendezvousBlocksSender(t *testing.T) {
	w := testWorld(2, 600)
	big := w.Net.EagerBytes * 2
	var senderDone float64
	res, err := Run(w, func(c *Ctx) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, []float64{42}, big); err != nil {
				return err
			}
			senderDone = c.Now()
			return nil
		}
		// Receiver computes first, so the sender must wait.
		if err := c.Compute(machine.W(6e8, 0, 0, 0)); err != nil { // 1 s
			return err
		}
		v, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if v[0] != 42 {
			return fmt.Errorf("payload %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if senderDone < 1.0 {
		t.Errorf("rendezvous sender finished at %g s, want ≥ 1 s (blocked on receiver)", senderDone)
	}
	if res.Seconds < senderDone {
		t.Error("makespan below sender completion")
	}
}

func TestSendRecvExchangeSymmetric(t *testing.T) {
	clocks := make([]float64, 2)
	_, err := Run(testWorld(2, 600), func(c *Ctx) error {
		peer := 1 - c.Rank()
		got, err := c.SendRecv(peer, peer, 9, []float64{float64(c.Rank())}, 0)
		if err != nil {
			return err
		}
		if got[0] != float64(peer) {
			return fmt.Errorf("rank %d got %v", c.Rank(), got)
		}
		clocks[c.Rank()] = c.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(clocks[0], clocks[1], 1e-9) {
		t.Errorf("exchange clocks diverge: %g vs %g", clocks[0], clocks[1])
	}
}

func TestBarrierEqualizesClocks(t *testing.T) {
	n := 4
	clocks := make([]float64, n)
	_, err := Run(testWorld(n, 600), func(c *Ctx) error {
		// Stagger ranks by different compute amounts.
		if err := c.Compute(machine.W(float64(c.Rank())*1e8, 0, 0, 0)); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		clocks[c.Rank()] = c.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < n; r++ {
		if !stats.AlmostEqual(clocks[r], clocks[0], 1e-9) {
			t.Errorf("rank %d clock %g ≠ rank 0 clock %g after barrier", r, clocks[r], clocks[0])
		}
	}
	// The barrier completes after the slowest rank's compute.
	slowest := float64(machine.PentiumM().TimeFor(machine.W(3e8, 0, 0, 0), 600e6))
	if clocks[0] < slowest {
		t.Errorf("barrier exit %g before slowest rank %g", clocks[0], slowest)
	}
}

func TestAllreduceSum(t *testing.T) {
	n := 4
	_, err := Run(testWorld(n, 600), func(c *Ctx) error {
		in := []float64{float64(c.Rank()), 1}
		out, err := c.Allreduce(in, Sum, 0)
		if err != nil {
			return err
		}
		if out[0] != 6 || out[1] != 4 { // 0+1+2+3, 1×4
			return fmt.Errorf("allreduce = %v", out)
		}
		// Input must not be clobbered.
		if in[0] != float64(c.Rank()) {
			return errors.New("allreduce mutated input")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMax(t *testing.T) {
	_, err := Run(testWorld(3, 600), func(c *Ctx) error {
		out, err := c.Allreduce([]float64{float64(c.Rank() * c.Rank())}, Max, 0)
		if err != nil {
			return err
		}
		if out[0] != 4 {
			return fmt.Errorf("max = %v, want 4", out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoall(t *testing.T) {
	n := 4
	_, err := Run(testWorld(n, 600), func(c *Ctx) error {
		parts := make([][]float64, n)
		for d := range parts {
			parts[d] = []float64{float64(10*c.Rank() + d)}
		}
		got, err := c.Alltoall(parts, 0)
		if err != nil {
			return err
		}
		for s := range got {
			want := float64(10*s + c.Rank())
			if got[s][0] != want {
				return fmt.Errorf("rank %d from %d: got %v, want %g", c.Rank(), s, got[s], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallPartCountChecked(t *testing.T) {
	_, err := Run(testWorld(2, 600), func(c *Ctx) error {
		_, err := c.Alltoall([][]float64{{1}}, 0)
		return err
	})
	if err == nil {
		t.Error("short parts slice accepted")
	}
}

func TestAllgather(t *testing.T) {
	n := 3
	_, err := Run(testWorld(n, 600), func(c *Ctx) error {
		got, err := c.Allgather([]float64{float64(c.Rank())}, 0)
		if err != nil {
			return err
		}
		for s := range got {
			if got[s][0] != float64(s) {
				return fmt.Errorf("slot %d = %v", s, got[s])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingleRankCollectives(t *testing.T) {
	_, err := Run(testWorld(1, 600), func(c *Ctx) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if out, err := c.Allreduce([]float64{5}, Sum, 0); err != nil || out[0] != 5 {
			return fmt.Errorf("allreduce: %v %v", out, err)
		}
		if out, err := c.Alltoall([][]float64{{7}}, 0); err != nil || out[0][0] != 7 {
			return fmt.Errorf("alltoall: %v %v", out, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSingleRankResultsAreCallerOwned: at world size 1 too, every slice a
// collective returns is the caller's own copy. Each case writes into the
// results, frees them, issues the collective again so the buffer cache
// hands the freed buffers back out, and checks the first call's input is
// untouched.
func TestSingleRankResultsAreCallerOwned(t *testing.T) {
	one := func(out []float64, err error) ([][]float64, error) { return [][]float64{out}, err }
	for _, tc := range []struct {
		name string
		call func(c *Ctx, in []float64) ([][]float64, error)
	}{
		{"Allreduce", func(c *Ctx, in []float64) ([][]float64, error) { return one(c.Allreduce(in, Sum, 0)) }},
		{"Alltoall", func(c *Ctx, in []float64) ([][]float64, error) { return c.Alltoall([][]float64{in}, 0) }},
		{"Allgather", func(c *Ctx, in []float64) ([][]float64, error) { return c.Allgather(in, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(testWorld(1, 600), func(c *Ctx) error {
				in := []float64{1, 2, 3}
				outs, err := tc.call(c, in)
				if err != nil {
					return err
				}
				for _, out := range outs {
					if !slices.Equal(out, []float64{1, 2, 3}) {
						return fmt.Errorf("result %v, want [1 2 3]", out)
					}
					for i := range out {
						out[i] = -1
					}
					c.Free(out)
				}
				again, err := tc.call(c, []float64{7, 8, 9})
				if err != nil {
					return err
				}
				if len(again) != 1 || !slices.Equal(again[0], []float64{7, 8, 9}) {
					return fmt.Errorf("second result %v, want [[7 8 9]]", again)
				}
				if !slices.Equal(in, []float64{1, 2, 3}) {
					return fmt.Errorf("input became %v after its result was written and freed", in)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		})
	}
}

// TestRankErrorAbortsJob: a failing rank tears the job down — a rank
// parked in a receive from it is woken with ErrAborted — and Run returns
// the root cause rather than the abort it induced.
func TestRankErrorAbortsJob(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(testWorld(2, 600), func(c *Ctx) error {
		if c.Rank() == 0 {
			return boom
		}
		// Rank 1 would block forever waiting for rank 0 without the abort.
		_, err := c.Recv(0, 0)
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the root cause", err)
	}
}

func TestDeterminism(t *testing.T) {
	prog := func(c *Ctx) error {
		if err := c.Compute(machine.W(1e7*float64(1+c.Rank()), 1e6, 0, 1e4)); err != nil {
			return err
		}
		if _, err := c.Allreduce([]float64{float64(c.Rank())}, Sum, 4096); err != nil {
			return err
		}
		parts := make([][]float64, c.Size())
		for d := range parts {
			parts[d] = []float64{1}
		}
		if _, err := c.Alltoall(parts, 2048); err != nil {
			return err
		}
		return c.Barrier()
	}
	var firstSec, firstJ float64
	for i := 0; i < 5; i++ {
		res, err := Run(testWorld(8, 1000), prog)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstSec, firstJ = res.Seconds, res.Joules
			continue
		}
		if res.Seconds != firstSec || res.Joules != firstJ {
			t.Fatalf("run %d diverged: %g/%g vs %g/%g", i, res.Seconds, res.Joules, firstSec, firstJ)
		}
	}
}

func TestAlltoallContentionSlowsLargeClusters(t *testing.T) {
	// With the flow-concurrency limit, a 16-rank alltoall of the same total
	// volume is slower than the ideal-switch prediction.
	run := func(flowLimit int) float64 {
		w := testWorld(16, 600)
		w.Net.FlowConcurrency = flowLimit
		res, err := Run(w, func(c *Ctx) error {
			parts := make([][]float64, c.Size())
			for d := range parts {
				parts[d] = []float64{0}
			}
			_, err := c.Alltoall(parts, 64<<10)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	limited, ideal := run(6), run(0)
	if limited <= ideal*1.5 {
		t.Errorf("contention-limited alltoall %g s not markedly slower than ideal %g s", limited, ideal)
	}
}

func TestTraceValid(t *testing.T) {
	res, err := Run(testWorld(4, 600), func(c *Ctx) error {
		c.SetPhase("work")
		if err := c.Compute(machine.W(1e6, 0, 0, 0)); err != nil {
			return err
		}
		c.SetPhase("sync")
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
	by := res.Trace.ByPhase()
	if by["work"] <= 0 || by["sync"] <= 0 {
		t.Errorf("phases not traced: %v", by)
	}
	if res.ComputeSec() <= 0 || res.CommSec() <= 0 {
		t.Error("compute/comm attribution missing")
	}
}

func TestEnergyAccountsIdleTail(t *testing.T) {
	// Rank 1 computes 1 s, rank 0 finishes immediately; the cluster energy
	// must cover rank 0 idling for the full makespan.
	w := testWorld(2, 600)
	res, err := Run(w, func(c *Ctx) error {
		if c.Rank() == 1 {
			return c.Compute(machine.W(6e8, 0, 0, 0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	idleFloor := float64(w.Prof.NodePower(w.State, 0)) * res.Seconds
	busyPart := float64(w.Prof.NodePower(w.State, 1)) * res.Seconds
	if res.Joules < idleFloor+busyPart-1e-9 {
		t.Errorf("Joules = %g, want ≥ idle(%g) + busy(%g)", res.Joules, idleFloor, busyPart)
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

// Every deposit of a reduction epoch must have rank 0's length, an empty
// rank 0 included: an empty first deposit once skipped the check, and
// rank 0 passing [] beside [r] elsewhere reduced to [3] on every rank.
func TestReduceAllLengthMismatch(t *testing.T) {
	cases := []struct {
		name string
		n    int
		lens func(rank int) int
	}{
		{"allreduce rank 1 longer", 2, func(r int) int { return 1 + r }},
		{"allreduce rank 0 empty", 3, func(r int) int { return min(r, 1) }},
	}
	for _, tc := range cases {
		_, err := Run(testWorld(tc.n, 600), func(c *Ctx) error {
			data := make([]float64, tc.lens(c.Rank()))
			for i := range data {
				data[i] = float64(c.Rank())
			}
			_, err := c.Allreduce(data, Sum, 0)
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "length mismatch") {
			t.Errorf("%s: err = %v, want a length mismatch", tc.name, err)
		}
	}
}

// A reduction whose ranks pass different ops has no single answer: with
// rank 0 summing and rank 1 taking the maximum, an Allreduce once gave the
// ranks [2 4] and [1 2], with no error.
func TestAllreduceOpMismatch(t *testing.T) {
	_, err := Run(testWorld(2, 600), func(c *Ctx) error {
		op := Sum
		if c.Rank() == 1 {
			op = Max
		}
		_, err := c.Allreduce([]float64{1, 2}, op, 0)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "op mismatch") {
		t.Errorf("err = %v, want an op mismatch", err)
	}
}

// The epoch reduces once into a buffer the engine owns, so each rank's
// result must be its own copy: rank 0 reads first and overwrites its
// result before rank 1 reads, and rank 1 must still see the reduction.
func TestAllreduceResultCallerOwned(t *testing.T) {
	overwritten := false
	_, err := Run(testWorld(2, 600), func(c *Ctx) error {
		in := []float64{float64(c.Rank() + 1), 10}
		if c.Rank() == 1 {
			// The send wakes rank 0 but rank 1 keeps the token, so it
			// deposits first and rank 0, arriving last, reads first.
			if err := c.Send(0, 0, nil, 0); err != nil {
				return err
			}
			out, err := c.Allreduce(in, Sum, 0)
			if err != nil {
				return err
			}
			if !overwritten {
				return errors.New("rank 1 read before rank 0 overwrote its result")
			}
			if out[0] != 3 || out[1] != 20 {
				return fmt.Errorf("rank 1 got %v after rank 0 overwrote its result, want [3 20]", out)
			}
			return nil
		}
		if _, err := c.Recv(1, 0); err != nil {
			return err
		}
		out, err := c.Allreduce(in, Sum, 0)
		if err != nil {
			return err
		}
		for i := range out {
			out[i] = -1
		}
		c.Free(out)
		overwritten = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Reductions combine in rank order on every rank, bit for bit: with
// values whose floating-point sum depends on the order, every rank must get
// exactly the left-to-right sum over ranks 0..7.
func TestAllreduceRankOrderSum(t *testing.T) {
	const n = 8
	vals := [n]float64{1e16, 1, -1e16, 1, 1e16, -1, 3, -1e16}
	in := func(rank int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = vals[(rank+i)%n]
		}
		return v
	}
	want, rev := make([]float64, n), make([]float64, n)
	for r := 0; r < n; r++ {
		for i, x := range in(r) {
			want[i] += x
		}
		for i, x := range in(n - 1 - r) {
			rev[i] += x
		}
	}
	differs := false
	for i := range want {
		differs = differs || math.Float64bits(want[i]) != math.Float64bits(rev[i])
	}
	if !differs {
		t.Fatalf("test values are not order-sensitive: rank-order sum %v equals the reverse-order sum", want)
	}
	_, err := Run(testWorld(n, 600), func(c *Ctx) error {
		out, err := c.Allreduce(in(c.Rank()), Sum, 0)
		if err != nil {
			return err
		}
		for i := range want {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("allreduce = %v, want the rank-order sum %v", out, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The reduction buffer is reused by the epoch two later: a length-3 Sum, a
// barrier, then a length-1 Max in the same container must return one
// element with the maximum, not the earlier epoch's sum or its length.
func TestAllreduceBufferReuseAcrossEpochs(t *testing.T) {
	_, err := Run(testWorld(4, 600), func(c *Ctx) error {
		r := float64(c.Rank())
		sum, err := c.Allreduce([]float64{r, 10 * r, 100 * r}, Sum, 0)
		if err != nil {
			return err
		}
		if len(sum) != 3 || sum[0] != 6 || sum[1] != 60 || sum[2] != 600 {
			return fmt.Errorf("sum = %v, want [6 60 600]", sum)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		mx, err := c.Allreduce([]float64{-r}, Max, 0)
		if err != nil {
			return err
		}
		if len(mx) != 1 || mx[0] != 0 {
			return fmt.Errorf("max = %v, want [0]", mx)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMakespanIsMaxClock(t *testing.T) {
	res, err := Run(testWorld(3, 600), func(c *Ctx) error {
		return c.Compute(machine.W(float64(c.Rank())*6e8, 0, 0, 0))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, s := range res.PerRank {
		want = math.Max(want, s.Seconds)
	}
	if res.Seconds != want {
		t.Errorf("Seconds = %g, want max rank clock %g", res.Seconds, want)
	}
}

// MPI semantics: the send buffer belongs to the caller again once Send
// returns. A sender that immediately overwrites its buffer must not corrupt
// the message in flight (regression test for the by-reference enqueue bug
// that broke MG's ghost exchanges).
func TestSendBufferReuseSafe(t *testing.T) {
	_, err := Run(testWorld(2, 600), func(c *Ctx) error {
		if c.Rank() == 0 {
			buf := []float64{42}
			if err := c.Send(1, 0, buf, 0); err != nil {
				return err
			}
			buf[0] = -1 // reuse immediately
			return c.Send(1, 1, buf, 0)
		}
		a, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if a[0] != 42 {
			return fmt.Errorf("first message corrupted by buffer reuse: %v", a)
		}
		b, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if b[0] != -1 {
			return fmt.Errorf("second message wrong: %v", b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The same holds for collective results: a rank mutating its contribution
// after the call must not alter what peers received.
func TestCollectiveBufferIsolation(t *testing.T) {
	_, err := Run(testWorld(2, 600), func(c *Ctx) error {
		mine := []float64{float64(c.Rank() + 1)}
		got, err := c.Allgather(mine, 0)
		if err != nil {
			return err
		}
		mine[0] = -99
		if err := c.Barrier(); err != nil {
			return err
		}
		for s := range got {
			if got[s][0] != float64(s+1) {
				return fmt.Errorf("allgather slot %d mutated: %v", s, got[s])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Per-phase DVFS at the runtime level: the OnPhase hook switches the gear,
// compute billed after the switch runs at the new frequency, and the
// gear-switch stall is charged.
func TestOnPhaseHookSwitchesGear(t *testing.T) {
	w := testWorld(1, 1400)
	prof := w.Prof
	w.GearSwitchSec = 100e-6
	w.OnPhase = func(c *Ctx, phase string) {
		if phase == "slow" {
			c.SetPState(prof.BaseState())
		} else {
			c.SetPState(prof.TopState())
		}
	}
	work := machine.W(1.4e9, 0, 0, 0) // 1 s at 1400 MHz, 2.33 s at 600 MHz
	res, err := Run(w, func(c *Ctx) error {
		if c.Freq() != 1400e6 {
			return fmt.Errorf("initial gear %g", c.Freq())
		}
		if err := c.Compute(work); err != nil {
			return err
		}
		c.SetPhase("slow")
		if c.Freq() != 600e6 {
			return fmt.Errorf("gear after hook %g", c.Freq())
		}
		return c.Compute(work)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 + 100e-6 + 1.4e9/600e6
	if !stats.AlmostEqual(res.Seconds, want, 1e-9) {
		t.Errorf("Seconds = %g, want %g", res.Seconds, want)
	}
}

func TestSetPStateNoopWithoutChange(t *testing.T) {
	w := testWorld(1, 600)
	w.GearSwitchSec = 1 // would be visible
	res, err := Run(w, func(c *Ctx) error {
		c.SetPState(w.State) // same gear: free
		return c.Compute(machine.W(6e8, 0, 0, 0))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.AlmostEqual(res.Seconds, 1.0, 1e-9) {
		t.Errorf("no-op switch charged time: %g", res.Seconds)
	}
}

func TestWorldValidateRejectsNegativeSwitch(t *testing.T) {
	w := testWorld(1, 600)
	w.GearSwitchSec = -1
	if _, err := Run(w, func(c *Ctx) error { return nil }); err == nil {
		t.Error("negative gear-switch time accepted")
	}
}

// Alltoall with skewed parts must be timed by the largest block.
func TestAlltoallSkewTimedByMaxPart(t *testing.T) {
	run := func(skew bool) float64 {
		res, err := Run(testWorld(4, 600), func(c *Ctx) error {
			parts := make([][]float64, 4)
			for d := range parts {
				n := 8
				if skew && d == (c.Rank()+1)%4 {
					n = 4096
				}
				parts[d] = make([]float64, n)
			}
			_, err := c.Alltoall(parts, 0)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	if uniform, skewed := run(false), run(true); skewed <= uniform {
		t.Errorf("skewed alltoall (%g s) not slower than uniform (%g s)", skewed, uniform)
	}
}

// Property: for any sequence of compute workloads, the cluster energy is
// bounded by the idle floor and busy ceiling over the makespan, and the
// makespan equals the slowest rank.
func TestEnergyBoundsProperty(t *testing.T) {
	w := testWorld(3, 1000)
	f := func(loads [3]uint32) bool {
		res, err := Run(w, func(c *Ctx) error {
			ops := float64(loads[c.Rank()]%1000000) + 1
			return c.Compute(machine.W(ops, ops/2, 0, ops/100))
		})
		if err != nil {
			return false
		}
		floor := 3 * float64(w.Prof.NodePower(w.State, 0)) * res.Seconds
		ceil := 3 * float64(w.Prof.NodePower(w.State, 1)) * res.Seconds
		return res.Joules >= floor-1e-9 && res.Joules <= ceil+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: aggregated PAPI counters equal the sum of the submitted mixes,
// regardless of how work is split across ranks and calls.
func TestCounterConservationProperty(t *testing.T) {
	w := testWorld(2, 600)
	f := func(chunks [4]uint16) bool {
		var want float64
		for _, c := range chunks {
			want += float64(c)
		}
		res, err := Run(w, func(c *Ctx) error {
			for i, ops := range chunks {
				if i%2 != c.Rank() {
					continue
				}
				if err := c.Compute(machine.W(float64(ops), 0, 0, 0)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return false
		}
		return res.Counters.Get(papi.TotIns) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
