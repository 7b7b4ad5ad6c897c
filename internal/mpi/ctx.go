package mpi

import (
	"fmt"

	"pasp/internal/faults"
	"pasp/internal/machine"
	"pasp/internal/obs"
	"pasp/internal/papi"
	"pasp/internal/power"
	"pasp/internal/trace"
	"pasp/internal/units"
)

// Ctx is one rank's handle on the job: its identity, virtual clock,
// counters, energy meter and trace. All methods must be called from the
// rank's own goroutine.
type Ctx struct {
	eng  *engine
	rank int

	// resume carries the execution token to this rank. The flags below are
	// the rank's scheduling state, touched only by the token holder (see
	// engine.go): queued marks the rank as present in the run heap, blocked
	// as parked inside a communication primitive, exited as having returned
	// from its body, inSync as parked inside a collective epoch, and
	// rdvWaiting/rdvDone carry a rendezvous sender's completion time from
	// the receiver.
	resume                          chan struct{}
	queued, blocked, exited, inSync bool
	rdvWaiting                      bool
	rdvDone                         float64

	// rec is the rank's operation tape when the world carries a Recording;
	// nil otherwise, the same nil-pointer hot-path guard as faults and metrics.
	rec *rankTape

	state power.PState

	clock       float64
	egressFree  float64
	ingressBusy float64

	computeSec float64
	commSec    float64
	faultSec   float64
	retries    int

	msgs     int
	msgBytes int

	// faults is the rank's chaos injector; nil when the world's fault
	// config is disabled, which is the hot-path guard: a fault-free run
	// performs no draw, no extra event and no arithmetic change.
	faults *faults.Rank

	// msgHist is the shared message-size histogram; nil when the world
	// carries no metrics registry, the same nil-pointer hot-path guard as
	// faults.
	msgHist *obs.Histogram

	// gearSwitches counts actual P-state changes for the observability
	// metrics; a plain increment on the rare SetPState path.
	gearSwitches int

	counters papi.Counters
	meter    *power.Meter
	log      trace.Log

	phase string

	// bufCache recycles payload buffers between Free calls and later
	// snapshot copies. It is touched only from the rank's own goroutine;
	// buffers migrate between ranks through the engine's message queues,
	// and ownership passes with the execution token: the send on the next
	// rank's resume channel is the hand-off (and the happens-before edge
	// the race detector checks).
	bufCache [][]float64

	// collFree / collFreeParts hold this rank's deposit from its previous
	// collective epoch, reclaimed into bufCache once the next epoch's
	// synchronization proves every reader is done with it (see
	// Ctx.collective).
	collFree      []float64
	collFreeParts [][]float64
	// partsHeader is the header of the last reclaimed Alltoall deposit,
	// cleared, which the next Alltoall deposits again in place of a new
	// N-element header.
	partsHeader [][]float64

	// ovFreq/ovBytes/ovSecs/ovValid memoize simnet.Config.CPUOverhead for
	// the handful of distinct message sizes a kernel uses, keyed by the
	// current frequency. See cpuOverhead.
	ovFreq  units.Hertz
	ovBytes [overheadSlots]int
	ovSecs  [overheadSlots]float64
	ovValid [overheadSlots]bool
}

// overheadSlots sizes the per-rank CPU-overhead memo. A direct-mapped cache
// this small covers the working set: a kernel phase cycles through only a
// few message sizes (face bytes, column bytes, reduction words).
const overheadSlots = 8

// cpuOverhead returns the per-message CPU cost of a payload of the given
// size at the rank's current frequency, memoized per (frequency, bytes).
// The cached value is the result of the exact same Config.CPUOverhead call,
// so timing stays bit-identical to the unmemoized path.
//
//palint:hotpath
func (c *Ctx) cpuOverhead(bytes int) float64 {
	if c.ovFreq != c.state.Freq { //palint:ignore floateq -- exact-key cache invalidation, not a tolerance comparison
		c.ovFreq = c.state.Freq
		c.ovValid = [overheadSlots]bool{}
	}
	slot := (bytes ^ bytes>>6 ^ bytes>>12) & (overheadSlots - 1)
	if c.ovValid[slot] && c.ovBytes[slot] == bytes {
		return c.ovSecs[slot]
	}
	o := c.eng.w.Net.CPUOverhead(bytes, c.state.Freq)
	c.ovBytes[slot], c.ovSecs[slot], c.ovValid[slot] = bytes, o, true
	return o
}

// maxCachedBuffers bounds the per-rank buffer cache so a kernel that frees
// many odd-sized buffers cannot pin unbounded memory. Sized to cover an
// Alltoall epoch at the platform's 16 ranks: n deposit parts plus n output
// copies cycle through the cache in alternation, so 2×16 keeps the transpose
// allocation-free in steady state.
const maxCachedBuffers = 32

// Free returns a payload buffer to the rank's buffer cache for reuse by a
// later Send or collective copy. Every slice a Ctx call returns is owned by
// the caller, at every world size, and may be freed once its contents have
// been copied out or fully consumed. The caller must not retain or read the
// slice after freeing it. Freeing is purely an optimization — dropping the
// slice for the garbage collector is always correct.
//
//palint:hotpath
func (c *Ctx) Free(buf []float64) {
	if cap(buf) == 0 || len(c.bufCache) >= maxCachedBuffers {
		return
	}
	c.bufCache = append(c.bufCache, buf) //palint:ignore hotalloc -- cache growth is bounded by maxCachedBuffers, then Free becomes a no-op
}

// snapshotPayload copies data into a caller-owned buffer, reusing a freed
// one when a large enough buffer is cached. The copy preserves the eager
// snapshot-at-send semantics: the sender may overwrite data immediately
// after Send returns.
//
//palint:hotpath
func (c *Ctx) snapshotPayload(data []float64) []float64 {
	if len(data) == 0 {
		return nil // matches append([]float64(nil), data...) exactly
	}
	for i := len(c.bufCache) - 1; i >= 0; i-- {
		if b := c.bufCache[i]; cap(b) >= len(data) {
			last := len(c.bufCache) - 1
			c.bufCache[i] = c.bufCache[last]
			c.bufCache = c.bufCache[:last]
			b = b[:len(data)]
			copy(b, data)
			return b
		}
	}
	b := make([]float64, len(data)) //palint:ignore hotalloc -- freelist miss path: amortized away once the cache warms up
	copy(b, data)
	return b
}

func newCtx(e *engine, rank int) *Ctx {
	w := &e.w
	c := &Ctx{
		eng:    e,
		rank:   rank,
		resume: make(chan struct{}, 1),
		state:  w.State,
		meter:  power.NewMeter(w.Prof),
		phase:  "main",
	}
	if w.Faults.Enabled() {
		c.faults = faults.NewRank(w.Faults, rank)
	}
	if w.Metrics != nil {
		c.msgHist = w.Metrics.Histogram("mpi.msg_bytes", obs.MsgBytesBuckets)
	}
	if w.traceHint != nil {
		c.log.Grow(w.traceHint[rank])
	}
	if w.Record != nil {
		c.rec = &w.Record.tapes[rank]
	}
	return c
}

// Rank returns this rank's index in [0, Size).
func (c *Ctx) Rank() int { return c.rank }

// Size returns the number of ranks in the job.
func (c *Ctx) Size() int { return c.eng.w.N }

// Now returns the rank's current virtual time in seconds.
func (c *Ctx) Now() float64 { return c.clock }

// Freq returns the core clock frequency of the node's current P-state.
func (c *Ctx) Freq() units.Hertz { return c.state.Freq }

// hz returns the current frequency as a plain float64 for virtual-clock
// arithmetic that divides instruction counts by it.
func (c *Ctx) hz() float64 { return float64(c.state.Freq) }

// SetPState switches the node to a new operating point, charging the
// world's gear-switch penalty when the state actually changes. DVFS
// schedulers call this from a phase hook to slow the processor through
// communication-bound phases.
//
// A recording captures the call, not the switch: whether it changes the
// state depends on the gear the run started at, so replay re-issues it and
// decides at its own gear.
func (c *Ctx) SetPState(st power.PState) {
	if c.rec != nil {
		c.rec.addPState(st)
	}
	if st == c.state {
		return
	}
	dt := c.eng.w.GearSwitchSec
	if dt > 0 {
		start := c.clock
		c.clock += float64(dt)
		// The transition is billed at the old gear's busy power: the PLL
		// relock stalls the pipeline but the core stays powered.
		_ = c.meter.Accumulate(c.state, 1, dt)
		c.log.Append(trace.Event{Rank: c.rank, Phase: "dvfs-switch", Kind: trace.Comm, Start: start, End: c.clock,
			Watts: float64(c.eng.w.Prof.NodePower(c.state, 1))})
		c.commSec += float64(dt)
	}
	c.state = st
	c.gearSwitches++
}

// SetPhase labels subsequent trace events; kernels call it at phase
// boundaries ("fft-z", "exchange", ...). When the world has an OnPhase
// hook (a DVFS scheduler), it runs on every transition to a new label.
func (c *Ctx) SetPhase(name string) {
	if name == c.phase {
		return
	}
	c.phase = name
	if c.rec != nil {
		c.rec.addPhase(name)
	}
	if c.eng.w.OnPhase != nil {
		c.eng.w.OnPhase(c, name)
	}
}

// Compute advances the rank's clock by the time the instruction mix takes
// on the node at the job's P-state, and accounts the mix on the PAPI
// counters and the energy meter.
func (c *Ctx) Compute(w machine.Work) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if c.rec != nil {
		c.rec.addCompute(w)
	}
	dt := c.eng.w.Mach.TimeFor(w, c.Freq())
	start := c.clock
	c.clock += float64(dt)
	c.computeSec += float64(dt)
	c.counters.AddWork(w)
	if err := c.meter.Accumulate(c.state, 1, dt); err != nil {
		return err
	}
	c.log.Append(trace.Event{Rank: c.rank, Phase: c.phase, Kind: trace.Compute, Start: start, End: c.clock,
		Watts: float64(c.eng.w.Prof.NodePower(c.state, 1))})
	// A straggler rank's compute stretches by its persistent slowdown —
	// equivalent to the node running at a lower effective frequency for
	// ON-chip work. The stretch is a separate Fault interval at busy power,
	// so traces attribute injected heterogeneity, not mislabel it compute.
	if c.faults != nil {
		if f := c.faults.ComputeFactor(); f > 1 {
			if err := c.advanceFault(float64(dt)*(f-1), trace.Fault, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// advanceFault advances the clock by dt of chaos-injected time, recording
// it under the given trace kind at the given utilization (1 for a straggler
// compute stretch, the poll utilization for network waits and backoff).
func (c *Ctx) advanceFault(dt float64, kind trace.Kind, util float64) error {
	if dt <= 0 {
		return nil
	}
	start := c.clock
	c.clock += dt
	c.faultSec += dt
	if err := c.meter.Accumulate(c.state, util, units.Seconds(dt)); err != nil {
		return err
	}
	c.log.Append(trace.Event{Rank: c.rank, Phase: c.phase, Kind: kind, Start: start, End: c.clock,
		Watts: float64(c.eng.w.Prof.NodePower(c.state, util))})
	return nil
}

// advanceComm moves the clock to end (≥ current clock), attributing the
// interval to communication at the busy-poll utilization.
func (c *Ctx) advanceComm(end float64) error {
	if end < c.clock {
		end = c.clock
	}
	dt := end - c.clock
	start := c.clock
	c.clock = end
	c.commSec += dt
	if err := c.meter.Accumulate(c.state, pollUtil, units.Seconds(dt)); err != nil {
		return err
	}
	c.log.Append(trace.Event{Rank: c.rank, Phase: c.phase, Kind: trace.Comm, Start: start, End: end,
		Watts: float64(c.eng.w.Prof.NodePower(c.state, pollUtil))})
	return nil
}

// noteMsgs records count outbound messages of bytesEach bytes on the rank's
// communication profile (the "number of messages × message size" product the
// paper obtains by profiling).
func (c *Ctx) noteMsgs(count, bytesEach int) {
	c.msgs += count
	c.msgBytes += count * bytesEach
	if c.msgHist != nil {
		c.msgHist.ObserveN(float64(bytesEach), int64(count))
	}
}

// checkPeer validates a peer rank index.
func (c *Ctx) checkPeer(peer string, r int) error {
	if r < 0 || r >= c.Size() {
		return fmt.Errorf("mpi: %s rank %d out of range [0,%d)", peer, r, c.Size())
	}
	if r == c.rank {
		return fmt.Errorf("mpi: %s rank %d is self", peer, r)
	}
	return nil
}
