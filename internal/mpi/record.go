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
// re-time the stream through the exact same public Ctx API in the other
// worlds with placeholder payloads. Replay runs the identical timing,
// counter, energy, fault-injection and trace code, so its Result is
// bit-identical to a direct run in that world — a property pinned by
// TestReplayMatchesDirect, for every operation kind by
// TestReplayEveryOpKind, and for the quick-suite kernels under other fault
// magnitudes and chaos seeds by TestReplayAcrossFaultAxes
// (internal/experiments). The chaos harness stays replayable because its
// draws are a pure function of (seed, rank, draw index) and the per-rank
// draw counts depend on the program alone: Message consumes a fixed number
// of draws per received message, plus one per retry, which the seed and
// drop knobs decide, never the clock; Collective a fixed number per
// collective. A tape recorded clean or under one seed therefore re-times
// under any fault magnitude or seed.
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
// phase labels interned once per tape, and one arena of the Alltoall part
// lengths.
//
// What recording refuses: an OnPhase hook (a DVFS scheduler's decisions
// need not be frequency-independent; Run rejects the combination). What it
// cannot see: a RankFunc that branches on Ctx.Now, Ctx.Freq or received
// payload values. No NPB kernel does — their iteration structure is fixed
// by the class parameters — and the two in-tree replayers record those
// kernels exclusively: cluster.SweepPlatforms, across gears and platforms,
// and paserve's /trace tape cache, across gears and chaos specs.
//
// The tape is also the run's communication-protocol record: cmd/paverify
// checks its CommLog projection, so conformance covers exactly the stream
// that replay re-times.

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
	// nlen is the payload length in float64s, or for opAlltoall the number
	// of part lengths recorded at lens[ref:]; vbytes is the virtual-size
	// override passed through unchanged.
	nlen   int
	vbytes int
	// ref is kind-dependent: the index of the label in phases (opPhase),
	// of the operating point in states (opPState) or of the mix in work
	// (opCompute), the offset of the first part length in lens
	// (opAlltoall), or the reduction Op (opAllreduce).
	ref int
}

// rankTape is one rank's recorded stream: the op chunks plus the side
// tables its ops index. Appended to only by the rank itself.
type rankTape struct {
	ops    [][]recOp
	work   []machine.Work
	states []power.PState
	// lens is the arena of every Alltoall part length, in recording order.
	lens []int
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

// addAlltoall records an Alltoall: the per-destination part lengths go to
// the lens arena, where the op's ref and nlen find them.
func (t *rankTape) addAlltoall(parts [][]float64, vbytes int) {
	t.add(recOp{kind: opAlltoall, nlen: len(parts), vbytes: vbytes, ref: len(t.lens)})
	for _, p := range parts {
		t.lens = append(t.lens, len(p))
	}
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
// comm log and the static skeleton share.
var collNames = [...]string{
	opBarrier:   "Barrier",
	opAllreduce: "Allreduce",
	opAlltoall:  "Alltoall",
	opAllgather: "Allgather",
}

// CommLog projects the recorded streams onto the communication-protocol
// events the static skeleton predicts, one program-order list per rank.
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
// returns the same Result a direct run of the original RankFunc under w
// would: the replayed stream passes through the identical timing, energy,
// fault and trace paths, with placeholder payloads standing in for the
// data (payload values never influence timing). Replay only reads rec, so
// concurrent replays of one recording are safe.
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
	w.Record = nil
	w.traceHint = rec.events
	return Run(w, rec.replayRank)
}

// replayRank is the RankFunc that re-issues one rank's tape. One scratch
// buffer stands in for every payload: collectives and sends snapshot their
// inputs, so sharing it between operations is safe, and the buffers the
// kernels' loop collectives return are recycled so replay's allocation
// profile stays flat like the kernels'.
func (rec *Recording) replayRank(c *Ctx) error {
	t := &rec.tapes[c.Rank()]
	maxLen := 0
	for _, chunk := range t.ops {
		for i := range chunk {
			if o := &chunk[i]; o.kind != opAlltoall {
				maxLen = max(maxLen, o.nlen)
			}
		}
	}
	for _, l := range t.lens {
		maxLen = max(maxLen, l)
	}
	scratch := make([]float64, maxLen)
	var parts [][]float64
	for _, chunk := range t.ops {
		for i := range chunk {
			o := &chunk[i]
			switch o.kind {
			case opPhase:
				c.SetPhase(t.phases[o.ref])
			case opPState:
				c.SetPState(t.states[o.ref])
			case opCompute:
				if err := c.Compute(t.work[o.ref]); err != nil {
					return err
				}
			case opSend:
				if err := c.Send(o.peer, o.tag, scratch[:o.nlen], o.vbytes); err != nil {
					return err
				}
			case opRecv:
				got, err := c.Recv(o.peer, o.tag)
				if err != nil {
					return err
				}
				c.Free(got)
			case opSendRecv:
				got, err := c.SendRecv(o.peer, o.peer2, o.tag, scratch[:o.nlen], o.vbytes)
				if err != nil {
					return err
				}
				c.Free(got)
			case opBarrier:
				if err := c.Barrier(); err != nil {
					return err
				}
			case opAllreduce:
				got, err := c.Allreduce(scratch[:o.nlen], Op(o.ref), o.vbytes)
				if err != nil {
					return err
				}
				c.Free(got)
			case opAlltoall:
				parts = parts[:0]
				for _, l := range t.lens[o.ref : o.ref+o.nlen] {
					parts = append(parts, scratch[:l])
				}
				outs, err := c.Alltoall(parts, o.vbytes)
				if err != nil {
					return err
				}
				for _, b := range outs {
					c.Free(b)
				}
			case opAllgather:
				outs, err := c.Allgather(scratch[:o.nlen], o.vbytes)
				if err != nil {
					return err
				}
				for _, b := range outs {
					c.Free(b)
				}
			default:
				return fmt.Errorf("mpi: replay: unknown operation kind %d", o.kind)
			}
		}
	}
	return nil
}
