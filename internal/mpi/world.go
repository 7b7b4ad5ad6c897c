// Package mpi is a virtual-time message-passing runtime: an MPI-like API
// (point-to-point sends and receives plus the collectives the NAS kernels
// need) whose cost model is the simulated cluster rather than the wall
// clock.
//
// Each rank runs as a coroutine under a discrete-event scheduler
// (engine.go) and owns a virtual clock. Computation
// advances the clock through the node timing model (package machine);
// communication advances it through the network model (package simnet).
// Messages carry both real payloads (so kernels compute verifiable results)
// and a virtual byte count (so a scaled-down array can be timed as the full
// NAS class would be).
//
// Determinism: the timing of every operation depends only on the virtual
// clocks of the participants and on per-pair FIFO message order, never on
// goroutine scheduling, so a simulation is reproducible run to run.
package mpi

import (
	"errors"
	"fmt"

	"pasp/internal/faults"
	"pasp/internal/machine"
	"pasp/internal/obs"
	"pasp/internal/papi"
	"pasp/internal/power"
	"pasp/internal/simnet"
	"pasp/internal/trace"
	"pasp/internal/units"
)

// ErrAborted is returned by communication calls after another rank has
// failed, so a collective error tears the whole job down instead of
// deadlocking.
var ErrAborted = errors.New("mpi: job aborted because another rank failed")

// ReduceInsPerByte is the endpoint instruction cost of combining one byte
// of a reduction payload (one load + one add per element, amortized).
const ReduceInsPerByte = 1.5

// pollUtil is the CPU utilization during communication waits. MPICH's TCP
// device busy-polls, so the paper's platform burns full power while blocked.
const pollUtil = 1.0

// World configures a simulated job: cluster size, machine/network models,
// and the P-state every node runs at.
type World struct {
	// N is the number of ranks (one per node).
	N int
	// Net is the interconnect model.
	Net simnet.Config
	// Mach is the per-node timing model.
	Mach machine.Config
	// Prof is the node power profile used for energy accounting.
	Prof power.Profile
	// State is the operating point all nodes run at for the whole job.
	// (Per-phase DVFS is layered on top by package dvfs.)
	State power.PState
	// OnPhase, when non-nil, runs on each rank whenever it enters a new
	// kernel phase; DVFS schedulers use it to switch the rank's P-state.
	OnPhase func(c *Ctx, phase string)
	// GearSwitchSec is the stall charged to a rank each time SetPState
	// actually changes the operating point (Enhanced SpeedStep transition
	// plus driver overhead).
	GearSwitchSec units.Seconds
	// Faults is the chaos-harness configuration. The zero value injects
	// nothing and leaves every timing bit-identical to the fault-free
	// simulation; see package faults.
	Faults faults.Config
	// Obs, when non-nil, records the run into the observability layer:
	// a run span with platform attributes, per-rank phase spans, and the
	// recorder's metric registry. Nil follows the faults nil-injector
	// contract — no allocation, no timing change, bit-identical traces
	// (the alloc and golden tests in obs_test.go enforce this). A
	// Recorder instruments exactly one run; reuse panics.
	Obs *obs.Recorder
	// Record, when non-nil, captures every rank's operation stream (phases,
	// compute work, message and collective shapes) so the run can be
	// re-timed at another frequency with Replay without re-executing kernel
	// code, and checked against the statically extracted communication
	// skeleton through its CommLog projection (cmd/paverify). Recording
	// requires a nil OnPhase hook: kernel control flow and communication
	// shapes are frequency-independent, but a DVFS scheduler's decisions need
	// not be. A Recording captures exactly one run.
	Record *Recording

	// traceHint carries the per-rank trace-event counts of a recorded run
	// into its replays, so each rank's log is sized once instead of grown
	// by doubling. Purely a capacity hint — an absent or stale value only
	// costs allocations, never correctness. Set by Replay.
	traceHint []int
}

// Validate reports an error for an unusable configuration.
func (w World) Validate() error {
	if w.N <= 0 {
		return fmt.Errorf("mpi: N = %d, want ≥ 1", w.N)
	}
	if err := w.Net.Validate(); err != nil {
		return err
	}
	if err := w.Mach.Validate(); err != nil {
		return err
	}
	if err := w.Prof.Validate(); err != nil {
		return err
	}
	if w.State.Freq <= 0 {
		return fmt.Errorf("mpi: zero-frequency P-state")
	}
	if w.GearSwitchSec < 0 {
		return fmt.Errorf("mpi: negative gear-switch time")
	}
	if err := w.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// RankFunc is the body executed by every rank.
type RankFunc func(c *Ctx) error

// RankStats summarizes one rank's run.
type RankStats struct {
	// Seconds is the rank's final virtual clock.
	Seconds float64
	// ComputeSec and CommSec attribute the clock to computation and
	// communication (including waits).
	ComputeSec, CommSec float64
	// Joules is the rank's node energy, excluding the idle tail spent
	// waiting for slower ranks to finish (accounted in Result.Joules).
	Joules float64
	// Msgs and MsgBytes profile the rank's outbound point-to-point traffic,
	// counting each collective as its constituent algorithm messages.
	Msgs     int
	MsgBytes int
	// FaultSec is the virtual time injected into this rank by the chaos
	// harness (jitter, degradation, straggler stretch and retry backoff);
	// zero on a fault-free run.
	FaultSec float64
	// Retries counts the injected message retransmissions this rank
	// observed on its receive path.
	Retries int
}

// Result aggregates a finished job.
type Result struct {
	// Seconds is the job's makespan: the maximum rank clock.
	Seconds float64
	// Joules is the whole-cluster energy: every node is powered for the
	// full makespan, with ranks that finish early idling at low utilization.
	Joules float64
	// Counters is the sum of all ranks' simulated PAPI counters.
	Counters papi.Counters
	// RankCounters holds each rank's counters (the paper samples rank 0 of
	// an SPMD code and notes counts agree within ~2% across ranks).
	RankCounters []papi.Counters
	// PerRank holds per-rank timing and energy.
	PerRank []RankStats
	// Trace is the merged phase trace of all ranks.
	Trace *trace.Log
}

// AvgWatts returns the cluster's mean power draw over the run.
func (r *Result) AvgWatts() float64 {
	if r.Seconds == 0 {
		return 0
	}
	return r.Joules / r.Seconds
}

// EDP returns the run's energy-delay product.
func (r *Result) EDP() float64 {
	return power.EDP(units.Joules(r.Joules), units.Seconds(r.Seconds))
}

// ComputeSec returns the summed compute time across ranks.
func (r *Result) ComputeSec() float64 {
	t := 0.0
	for _, s := range r.PerRank {
		t += s.ComputeSec
	}
	return t
}

// CommSec returns the summed communication time across ranks.
func (r *Result) CommSec() float64 {
	t := 0.0
	for _, s := range r.PerRank {
		t += s.CommSec
	}
	return t
}

// FaultSec returns the summed chaos-injected time across ranks; zero on a
// fault-free run.
func (r *Result) FaultSec() float64 {
	t := 0.0
	for _, s := range r.PerRank {
		t += s.FaultSec
	}
	return t
}

// Retries returns the total injected message retransmissions across ranks.
func (r *Result) Retries() int {
	n := 0
	for _, s := range r.PerRank {
		n += s.Retries
	}
	return n
}

// Run executes fn on every rank of the world and aggregates the outcome.
// The first rank error aborts the job and is returned.
func Run(w World, fn RankFunc) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if w.Record != nil {
		if w.OnPhase != nil {
			return nil, errors.New("mpi: cannot record a run with an OnPhase hook: replay re-times the stream at other frequencies, and a DVFS scheduler's decisions need not be frequency-independent")
		}
		if err := w.Record.begin(w.N); err != nil {
			return nil, err
		}
	}
	if w.Obs != nil {
		beginObserve(w)
	}
	e := newEngine(w)
	errs := e.run(fn)
	// Prefer the root cause: a rank that failed on its own error rather
	// than one torn down by the abort.
	var aborted error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrAborted) {
			if aborted == nil {
				aborted = err
			}
			continue
		}
		return nil, err
	}
	if aborted != nil {
		return nil, aborted
	}
	if w.Record != nil {
		w.Record.finish(e.ctxs)
	}
	res := aggregate(w, e.ctxs)
	if w.Obs != nil {
		observeRun(w, e.ctxs, res)
	}
	return res, nil
}

func aggregate(w World, ctxs []*Ctx) *Result {
	res := &Result{
		PerRank:      make([]RankStats, w.N),
		RankCounters: make([]papi.Counters, w.N),
	}
	logs := make([]*trace.Log, w.N)
	for i, c := range ctxs {
		if c.clock > res.Seconds {
			res.Seconds = c.clock
		}
		logs[i] = &c.log
	}
	for i, c := range ctxs {
		idleTail := units.Seconds(res.Seconds - c.clock)
		idleJ := w.Prof.NodePower(w.State, 0).Energy(idleTail)
		res.PerRank[i] = RankStats{
			Seconds:    c.clock,
			ComputeSec: c.computeSec,
			CommSec:    c.commSec,
			Joules:     float64(c.meter.Joules()),
			Msgs:       c.msgs,
			MsgBytes:   c.msgBytes,
			FaultSec:   c.faultSec,
			Retries:    c.retries,
		}
		res.Joules += float64(c.meter.Joules() + idleJ)
		res.RankCounters[i] = c.counters
		res.Counters.Add(c.counters)
	}
	res.Trace = trace.Merge(logs...)
	return res
}
