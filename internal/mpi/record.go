package mpi

import (
	"errors"
	"fmt"

	"pasp/internal/machine"
	"pasp/internal/power"
	"pasp/internal/trace"
)

// Record/replay across gears, platforms and fault configs.
//
// A kernel's control flow, data movement and message sizes are functions of
// the problem size and rank count only — never of the operating frequency,
// the platform's timing models or the chaos harness. Those enter the
// simulation purely through the timing arithmetic inside Ctx (TimeFor,
// cpuOverhead, ReduceInsPerByte/hz, the network model, the fault draws).
// So a sweep over them does not need to execute the kernel's arithmetic
// once per cell: execute it once, record each rank's operation stream
// (phase transitions, compute work, message and collective shapes), and
// re-time the streams in the other worlds. Replay walks the N tapes on one
// goroutine and moves no payloads, but it times every operation with the
// Ctx code a direct run uses: SetPhase, SetPState and Compute as they are,
// and each blocking call's halves on either side of its wait. So its
// Result is bit-identical to a direct run in that world, a property pinned
// by TestReplayMatchesDirect, for every operation kind by
// TestReplayEveryOpKind, for generated programs by FuzzReplay, and for the
// quick-suite kernels under other fault magnitudes and chaos seeds and on
// other platforms by TestReplayAcrossFaultAxes and
// TestReplayAcrossPlatforms (internal/experiments). The chaos harness
// stays replayable because its draws are a pure function of (seed, rank,
// draw index) and the per-rank draw counts depend on the program alone:
// Message consumes a fixed number of draws per received message, plus one
// per retry, which the seed and drop knobs decide, never the clock;
// Collective a fixed number per collective. A tape recorded clean or under
// one seed therefore re-times under any fault magnitude or seed.
//
// SetPState is recorded per call, not per switch: a call that leaves the
// state unchanged at the recording gear can switch at another one, so
// replay re-issues every call and decides at its own gear.
//
// Tape layout. A tape costs memory and allocation in proportion to its op
// count (2.8 million ops for LU at 1024 ranks), so each op is a 56-byte
// recOp of int-width fields with no pointer, which the garbage collector
// never scans. Ops go into chunks that are each allocated once and never
// copied (trace.AppendChunk), so a rank with a short tape allocates little
// and a long tape about its own size. Recording the paper suite's
// tapes allocates 89 B per op, side tables included; growing one op array
// by append allocated 251 B. What varies in size lives in per-rank side
// tables the op indexes: compute mixes and P-states in the order recorded,
// and phase labels interned once per tape. An Alltoall keeps the block
// size it is timed by, not its N part lengths.
//
// What recording refuses: an OnPhase hook (a DVFS scheduler's decisions
// need not be frequency-independent; Run rejects the combination). What it
// cannot see: a RankFunc that branches on Ctx.Now, Ctx.Freq or received
// payload values. No NPB kernel does — their iteration structure is fixed
// by the class parameters — and the two in-tree replayers record those
// kernels exclusively: cluster.SweepPlatforms, across gears and platforms,
// and paserve's /trace tape cache, across gears and chaos specs.
//
// The tape is also the run's communication-protocol record: its CommLog
// projection is what comm_log.golden pins, so the protocol check covers
// exactly the stream that replay re-times.

// opKind discriminates the recorded operations.
type opKind uint8

const (
	opPhase opKind = iota
	opPState
	opCompute
	opSend
	opRecv
	opSendRecv
	opBarrier
	opAllreduce
	opAlltoall
	opAllgather
)

// recOp is one recorded Ctx call: the operation's shape, never its data.
// It is a fixed 56-byte record without pointers (see the tape layout
// above); whatever varies in size or holds a pointer lives in the rankTape
// side tables that ref indexes.
type recOp struct {
	kind opKind
	// peer is the destination or source rank, kind-dependent; peer2 is
	// SendRecv's source.
	peer, peer2 int
	tag         int
	// nlen is the payload length in float64s and vbytes the virtual-size
	// override passed through unchanged; together they give the timed size
	// (timedBytes). An opAlltoall keeps its resolved block size in vbytes
	// and a zero nlen.
	nlen   int
	vbytes int
	// ref is kind-dependent: the index of the label in phases (opPhase),
	// of the operating point in states (opPState) or of the mix in work
	// (opCompute), or the reduction Op (opAllreduce).
	ref int
}

// rankTape is one rank's recorded stream: the op chunks plus the side
// tables its ops index. Appended to only by the rank itself.
type rankTape struct {
	ops    [][]recOp
	work   []machine.Work
	states []power.PState
	// phases holds each distinct phase label once, in first-use order, and
	// phaseRef maps a label to its index: a kernel cycles through a few
	// labels thousands of times.
	phases   []string
	phaseRef map[string]int
}

func (t *rankTape) add(o recOp) { t.ops = trace.AppendChunk(t.ops, o) }

func (t *rankTape) addPhase(name string) {
	i, ok := t.phaseRef[name]
	if !ok {
		if t.phaseRef == nil {
			t.phaseRef = make(map[string]int)
		}
		i = len(t.phases)
		t.phases = append(t.phases, name)
		t.phaseRef[name] = i
	}
	t.add(recOp{kind: opPhase, ref: i})
}

func (t *rankTape) addPState(st power.PState) {
	t.add(recOp{kind: opPState, ref: len(t.states)})
	t.states = append(t.states, st)
}

func (t *rankTape) addCompute(w machine.Work) {
	t.add(recOp{kind: opCompute, ref: len(t.work)})
	t.work = append(t.work, w)
}

// Recording captures the operation streams of exactly one run (attach via
// World.Record), after which Replay can re-time it at other operating
// points. A Recording is single-use on the capture side: attaching it to a
// second run fails, so a tape can never silently interleave two runs.
type Recording struct {
	n int
	// state: 0 fresh, 1 capturing, 2 complete. Guarded by Run's
	// fork/join — only the driver goroutine moves it.
	state int
	tapes []rankTape
	// events is each rank's trace-event count from the capture run. Event
	// counts are frequency-independent (the same operation stream emits the
	// same intervals at every operating point), so Replay uses them to give
	// each per-rank trace log one chunk of the right size.
	events []int
}

// NewRecording returns an empty recording ready to attach to one run.
func NewRecording() *Recording { return &Recording{} }

func (r *Recording) begin(n int) error {
	if r.state != 0 {
		return errors.New("mpi: Recording already used; a recording captures exactly one run")
	}
	r.state = 1
	r.n = n
	r.tapes = make([]rankTape, n)
	return nil
}

func (r *Recording) finish(ctxs []*Ctx) {
	r.state = 2
	r.events = make([]int, len(ctxs))
	for i, c := range ctxs {
		r.events[i] = c.log.Len()
	}
}

// Complete reports whether the recording captured a full successful run
// and can be replayed.
func (r *Recording) Complete() bool { return r != nil && r.state == 2 }

// N returns the rank count the recording was captured at.
func (r *Recording) N() int { return r.n }

// Ops returns the number of operations recorded for one rank.
func (r *Recording) Ops(rank int) int {
	n := 0
	for _, c := range r.tapes[rank].ops {
		n += len(c)
	}
	return n
}

// collNames maps each collective kind to its Ctx method name, the label the
// comm log gives it.
var collNames = [...]string{
	opBarrier:   "Barrier",
	opAllreduce: "Allreduce",
	opAlltoall:  "Alltoall",
	opAllgather: "Allgather",
}

// CommLog projects the recorded streams onto their communication-protocol
// events, one program-order list per rank.
// Each tape is walked from the implicit phase "main": a phase transition
// becomes a phase event, a send or receive an endpoint event, a SendRecv a
// send to its destination then a receive from its source, and a collective
// a coll event, each stamped with the current phase. Compute and P-state
// operations are timing, not protocol, and are skipped.
func (r *Recording) CommLog() [][]trace.CommEvent {
	log := make([][]trace.CommEvent, len(r.tapes))
	for rank, t := range r.tapes {
		phase := "main"
		add := func(kind, name string, peer, tag int) {
			log[rank] = append(log[rank], trace.CommEvent{Kind: kind, Name: name, Peer: peer, Tag: tag, Phase: phase})
		}
		for _, chunk := range t.ops {
			for i := range chunk {
				switch o := &chunk[i]; o.kind {
				case opPState, opCompute:
				case opPhase:
					phase = t.phases[o.ref]
					log[rank] = append(log[rank], trace.CommEvent{Kind: trace.CommPhase, Name: phase})
				case opSend:
					add(trace.CommSend, "", o.peer, o.tag)
				case opRecv:
					add(trace.CommRecv, "", o.peer, o.tag)
				case opSendRecv:
					add(trace.CommSend, "", o.peer, o.tag)
					add(trace.CommRecv, "", o.peer2, o.tag)
				default:
					add(trace.CommColl, collNames[o.kind], 0, 0)
				}
			}
		}
	}
	return log
}

// Replay re-times a recorded run under w — the recording's world at
// another P-state, on another platform's timing models or under another
// fault config (magnitude or seed) — without executing any kernel code. It
// returns the same Result, and leaves the same contents in w.Metrics, as a
// direct run of the original RankFunc under w would: it walks the tapes on
// the calling goroutine, times each op with the Ctx code a direct run
// uses, and carries byte counts instead of payloads (payload values never
// influence timing). Replay only reads rec, so concurrent replays of one
// recording are safe.
func Replay(w World, rec *Recording) (*Result, error) {
	if !rec.Complete() {
		return nil, errors.New("mpi: Replay needs a Recording completed by a successful run")
	}
	if w.N != rec.n {
		return nil, fmt.Errorf("mpi: Replay world has %d ranks but the recording was captured at %d", w.N, rec.n)
	}
	if w.OnPhase != nil {
		return nil, errors.New("mpi: cannot replay into a world with an OnPhase hook")
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	w.Record = nil
	w.traceHint = rec.events
	e := newEngine(w)
	if err := e.replay(rec.tapes); err != nil {
		return nil, err
	}
	return e.result(), nil
}

// replayPos is one rank's place in its tape: the op it runs next, and
// whether that op's first half is done — its message queued or its
// collective epoch joined at cost, in container snap.
type replayPos struct {
	chunk, i int
	half     bool
	cost     float64
	snap     *collSnapshot
}

// replay runs the tapes to their ends on the calling goroutine. A rank
// runs until an op must wait — for a message on an empty queue, for room
// on a full one (mailboxDepth), for a rendezvous receiver to take its
// message, or for the rest of a collective epoch — and is then set aside
// on that event, exactly where the engine would park it. The event makes
// it runnable again, and it retries the same op. Runnable ranks resume in
// the engine's (clock, rank) order, though any order gives the same bits:
// a rank's timing depends only on its own program order, per-pair FIFO
// order and the membership of each collective epoch. When no rank is
// runnable but some have not finished, the tapes deadlock.
func (e *engine) replay(tapes []rankTape) error {
	pos := make([]replayPos, len(tapes))
	for rank := range e.ctxs {
		e.makeRunnable(rank)
	}
	for len(e.heap) > 0 {
		rank := int(e.heapPop().rank)
		c := e.ctxs[rank]
		c.queued = false
		if err := e.resume(c, &tapes[rank], &pos[rank]); err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	for rank, c := range e.ctxs {
		if !c.exited {
			return fmt.Errorf("rank %d: %w", rank, ErrDeadlock)
		}
	}
	return nil
}

// resume runs c's tape from p until an op must wait or the tape ends.
func (e *engine) resume(c *Ctx, t *rankTape, p *replayPos) error {
	for ; p.chunk < len(t.ops); p.chunk, p.i = p.chunk+1, 0 {
		for ops := t.ops[p.chunk]; p.i < len(ops); p.i++ {
			if wait, err := e.replayOp(c, t, &ops[p.i], p); wait || err != nil {
				return err
			}
		}
	}
	c.exited = true
	return nil
}

// replayOp runs op o of c's tape, resuming after its first half when
// p.half is set, and reports whether c must wait for an event first.
func (e *engine) replayOp(c *Ctx, t *rankTape, o *recOp, p *replayPos) (wait bool, err error) {
	switch o.kind {
	case opPhase:
		c.SetPhase(t.phases[o.ref])
	case opPState:
		c.SetPState(t.states[o.ref])
	case opCompute:
		err = c.Compute(t.work[o.ref])
	case opSend:
		if !p.half {
			q := e.queue(c.rank, o.peer)
			if !e.hasRoom(c, q) {
				return true, nil
			}
			m := c.post(o.tag, timedBytes(o.nlen, o.vbytes))
			e.put(q, m)
			if !m.rendezvous {
				return false, c.advanceComm(m.ready)
			}
			c.rdvWaiting, p.half = true, true
		}
		if c.rdvWaiting {
			return true, nil
		}
		p.half = false
		err = c.rendezvousDone(c.rdvDone)
	case opRecv, opSendRecv:
		src := o.peer
		if o.kind == opSendRecv {
			src = o.peer2
			if !p.half {
				q := e.queue(c.rank, o.peer)
				if !e.hasRoom(c, q) {
					return true, nil
				}
				e.put(q, c.exchangeOut(o.tag, timedBytes(o.nlen, o.vbytes)))
				p.half = true
			}
		}
		q := e.queue(src, c.rank)
		if !e.hasMail(c, q) {
			return true, nil
		}
		p.half = false
		m := e.take(q)
		err = c.deliver(src, o.tag, &m)
	case opBarrier, opAllreduce, opAlltoall, opAllgather:
		if e.w.N == 1 {
			return false, nil // a one-rank collective costs nothing
		}
		if !p.half {
			switch o.kind {
			case opBarrier:
				p.cost = c.barrierCost()
			case opAllreduce:
				p.cost = c.reduceCost(timedBytes(o.nlen, o.vbytes))
			default:
				p.cost = c.allPortsCost(timedBytes(o.nlen, o.vbytes))
			}
			p.snap, p.half = e.arrive(c, nil), true
		}
		if c.inSync {
			return true, nil
		}
		p.half = false
		err = c.collDone(p.snap.entry, p.cost)
	default:
		err = fmt.Errorf("mpi: replay: unknown operation kind %d", o.kind)
	}
	return false, err
}
