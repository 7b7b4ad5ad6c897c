package mpi

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pasp/internal/machine"
	"pasp/internal/obs"
	"pasp/internal/units"
)

// Step kinds of the programs FuzzReplay generates.
const (
	stepCompute = iota
	stepPhase
	stepPState
	stepBarrier
	stepAllreduceSum
	stepAllreduceMax
	stepAlltoall
	stepAllgather
	stepSendRecv
	stepBatch
	numStepKinds
)

// fuzzStep is one step of a generated SPMD program. Every rank runs every
// step and derives its own part from its rank and the two parameters.
type fuzzStep struct{ kind, a, b byte }

// fuzzMsg is one message of a batch step.
type fuzzMsg struct{ src, dst, size int }

// batch returns the messages of a batch step at n ≥ 2 ranks in issue
// order.
func (s fuzzStep) batch(n int) []fuzzMsg {
	rng := rand.New(rand.NewPCG(uint64(s.a), uint64(s.b)))
	msgs := make([]fuzzMsg, 1+int(s.a)%6)
	for j := range msgs {
		src := rng.IntN(n)
		dst := (src + 1 + rng.IntN(n-1)) % n
		msgs[j] = fuzzMsg{src, dst, fuzzSizes[rng.IntN(len(fuzzSizes))]}
	}
	return msgs
}

// fuzzProgram is a generated program and the worlds it runs in: n ranks,
// recorded at gear rec and run directly and replayed at gear run, under
// the chaos config when chaos is set. With drop set, the sender of the
// first batch step's first message skips that Send.
type fuzzProgram struct {
	n        int
	rec, run int
	chaos    bool
	drop     bool
	seed     uint64
	steps    []fuzzStep
}

// dropFlag in the first input byte sets fuzzProgram.drop.
const dropFlag = 8

// maxFuzzSteps bounds a generated program, so one input runs in
// milliseconds.
const maxFuzzSteps = 48

// decodeProgram reads a program from fuzz input: the rank count (1 to 8)
// and the drop switch, the gear pair as indices into the P-state table,
// the chaos switch and seed, then three bytes per step.
func decodeProgram(data []byte) (fuzzProgram, bool) {
	if len(data) < 3 {
		return fuzzProgram{}, false
	}
	gears := len(testWorld(1, 600).Prof.States)
	p := fuzzProgram{
		n:     1 + int(data[0])%8,
		drop:  data[0]&dropFlag != 0,
		rec:   int(data[1]) % gears,
		run:   int(data[1]) / gears % gears,
		chaos: data[2]&1 == 1,
		seed:  uint64(data[2] >> 1),
	}
	for rest := data[3:]; len(rest) >= 3 && len(p.steps) < maxFuzzSteps; rest = rest[3:] {
		p.steps = append(p.steps, fuzzStep{rest[0] % numStepKinds, rest[1], rest[2]})
	}
	return p, true
}

// droppedStep returns the index of the batch step whose first Send the
// program skips: its first batch step when drop is set and it has more
// than one rank, else -1.
func (p fuzzProgram) droppedStep() int {
	if !p.drop || p.n == 1 {
		return -1
	}
	for i, s := range p.steps {
		if s.kind == stepBatch {
			return i
		}
	}
	return -1
}

// world returns the program's world at P-state index gear, with a
// gear-switch stall so SetPState costs time.
func (p fuzzProgram) world(gear int) World {
	w := testWorld(p.n, 600)
	w.State = w.Prof.States[gear]
	w.GearSwitchSec = units.Seconds(50e-6)
	if p.chaos {
		w.Faults = chaosCfg
		w.Faults.Seed = p.seed
	}
	return w
}

// fuzzSizes are the timed sizes a message or collective draws from: the
// payload's own size, small overrides, and both sides of the eager limit.
var fuzzSizes = [...]int{0, 8, 1024, 4096, 64<<10 - 8, 64 << 10, 64<<10 + 8, 256 << 10}

// fuzzPhases are the labels SetPhase steps choose from.
var fuzzPhases = [...]string{"alpha", "beta", "gamma"}

// body returns the program as a RankFunc. Steps never read the clock or
// the frequency, so the program is replayable. Send/Recv batches are
// issued by every rank in the batch's list order, which no rendezvous
// send can deadlock: the first unfinished message's sender and receiver
// have both finished every earlier message they take part in.
func (p fuzzProgram) body() RankFunc {
	drop := p.droppedStep()
	return func(c *Ctx) error {
		n, r := c.Size(), c.Rank()
		buf := make([]float64, 8)
		states := c.eng.w.Prof.States
		for i, s := range p.steps {
			a, b := int(s.a), int(s.b)
			var err error
			switch s.kind {
			case stepCompute:
				err = c.Compute(machine.W(1e4*float64(1+(a+r)%8), 1e3*float64(1+b%8), 1e2*float64(r%3), 10*float64(a%5)))
			case stepPhase:
				c.SetPhase(fuzzPhases[(a+r*(b%2))%len(fuzzPhases)])
			case stepPState:
				c.SetPState(states[(a+r*(b%2))%len(states)])
			case stepBarrier:
				err = c.Barrier()
			case stepAllreduceSum, stepAllreduceMax:
				op := Sum
				if s.kind == stepAllreduceMax {
					op = Max
				}
				var got []float64
				if got, err = c.Allreduce(buf[:1+a%4], op, fuzzSizes[b%len(fuzzSizes)]); err == nil {
					c.Free(got)
				}
			case stepAlltoall:
				parts := make([][]float64, n)
				for d := range parts {
					parts[d] = buf[:(r+d*(1+a%3)+b)%5]
				}
				vbytes := 0
				if b&8 != 0 {
					vbytes = fuzzSizes[a%len(fuzzSizes)]
				}
				_, err = c.Alltoall(parts, vbytes)
			case stepAllgather:
				_, err = c.Allgather(buf[:1+(r+a)%4], fuzzSizes[b%len(fuzzSizes)]*(b/8%2))
			case stepSendRecv:
				if n == 1 {
					break
				}
				// A permutation exchange: r sends to perm[r] and receives
				// from the rank that sends to it; fixed points sit out.
				perm := rand.New(rand.NewPCG(uint64(a), uint64(b))).Perm(n)
				src := 0
				for from, to := range perm {
					if to == r {
						src = from
					}
				}
				if perm[r] != r {
					var got []float64
					if got, err = c.SendRecv(perm[r], src, i, buf[:1+(r+b)%8], fuzzSizes[(a+r)%len(fuzzSizes)]); err == nil {
						c.Free(got)
					}
				}
			case stepBatch:
				if n == 1 {
					break
				}
				for j, m := range s.batch(n) {
					tag := 64*i + j
					switch {
					case r == m.src && (i != drop || j != 0):
						err = c.Send(m.dst, tag, buf[:1+j%8], m.size)
					case r == m.dst:
						var got []float64
						if got, err = c.Recv(m.src, tag); err == nil {
							c.Free(got)
						}
					}
					if err != nil {
						break
					}
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// requireSameRun fails unless two runs agree in every Result field, the
// merged trace compared by its TimelineCSV bytes and the floats bit for
// bit, and left the same contents in their metrics registries.
func requireSameRun(t *testing.T, label string, a, b *Result, ra, rb *obs.Registry) {
	t.Helper()
	if a.Trace.TimelineCSV() != b.Trace.TimelineCSV() {
		t.Errorf("%s: timelines differ", label)
	}
	x, y := *a, *b
	x.Trace, y.Trace = nil, nil
	if math.Float64bits(x.Seconds) != math.Float64bits(y.Seconds) || math.Float64bits(x.Joules) != math.Float64bits(y.Joules) || !reflect.DeepEqual(x, y) {
		t.Errorf("%s: results differ:\n  %+v\n  %+v", label, x, y)
	}
	if !reflect.DeepEqual(ra.Snapshot(), rb.Snapshot()) {
		t.Errorf("%s: metrics differ:\n  %+v\n  %+v", label, ra.Snapshot(), rb.Snapshot())
	}
}

// fuzzSeed builds a seed input: the header bytes, then the steps.
func fuzzSeed(n, recGear, runGear int, chaos bool, steps ...fuzzStep) []byte {
	flag := byte(0)
	if chaos {
		flag = 1 | 7<<1
	}
	data := []byte{byte(n - 1), byte(recGear + 5*runGear), flag}
	for _, s := range steps {
		data = append(data, s.kind, s.a, s.b)
	}
	return data
}

// requireUnmatched fails unless err is how a run ends whose message m,
// tagged tag, was never sent: ErrDeadlock, or the tag mismatch m's
// receiver meets when a later message from the same sender is queued
// first.
func requireUnmatched(t *testing.T, label string, err error, m fuzzMsg, tag int) {
	t.Helper()
	mismatch := fmt.Sprintf("rank %d expected tag %d from rank %d, got ", m.dst, tag, m.src)
	if err == nil || !errors.Is(err, ErrDeadlock) && !strings.Contains(err.Error(), mismatch) {
		t.Fatalf("%s: err = %v, want ErrDeadlock or %q", label, err, mismatch+"…")
	}
}

// FuzzReplay is the replay property over generated programs: a program
// recorded at one gear and replayed at another equals its direct run at
// the other gear in every Result field, the TimelineCSV bytes and the
// metrics registry, clean and under chaos. Each program is an SPMD mix of
// per-rank compute, phase and P-state steps, every collective with uneven
// or overridden sizes, permutation exchanges and batches of matched sends
// and receives on both sides of the eager limit, at 1 to 8 ranks. The
// seed corpus holds one input per step kind and one mixing them all.
//
// An input with the drop switch set checks the other side: when the first
// batch step's first message is never sent, the direct run fails, and so
// does the replay of the intact program's tape with that Send deleted,
// each with ErrDeadlock or a tag mismatch, never a hang. Its seeds end
// both ways.
func FuzzReplay(f *testing.F) {
	for kind := byte(0); kind < numStepKinds; kind++ {
		f.Add(fuzzSeed(4, 0, 4, kind%2 == 1,
			fuzzStep{stepCompute, 1, 2}, fuzzStep{kind, 3, 5}, fuzzStep{kind, 4, 9}, fuzzStep{stepCompute, 2, 1}))
	}
	var mix []fuzzStep
	for kind := byte(0); kind < numStepKinds; kind++ {
		mix = append(mix, fuzzStep{kind, 2 + kind, 7 + 3*kind}, fuzzStep{stepCompute, kind, 1})
	}
	f.Add(fuzzSeed(5, 4, 1, true, mix...))
	for _, seed := range [][]byte{
		fuzzSeed(3, 0, 4, false, fuzzStep{stepCompute, 1, 2}, fuzzStep{stepBatch, 0, 1}, fuzzStep{stepBarrier, 0, 0}),
		fuzzSeed(2, 4, 0, true, fuzzStep{stepBatch, 1, 1}, fuzzStep{stepAllreduceSum, 1, 3}),
		fuzzSeed(3, 1, 3, false, fuzzStep{stepSendRecv, 3, 5}, fuzzStep{stepBatch, 1, 18}, fuzzStep{stepBatch, 2, 7}),
		fuzzSeed(4, 1, 3, false, fuzzStep{stepSendRecv, 3, 5}, fuzzStep{stepBatch, 5, 3}, fuzzStep{stepBatch, 2, 7}),
	} {
		seed[0] |= dropFlag
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := decodeProgram(data)
		if !ok {
			return
		}
		if i := p.droppedStep(); i >= 0 {
			m, tag := p.steps[i].batch(p.n)[0], 64*i
			_, err := Run(p.world(p.run), p.body())
			requireUnmatched(t, "direct", err, m, tag)
			intact := p
			intact.drop = false
			rw := intact.world(p.rec)
			rec := NewRecording()
			rw.Record = rec
			if _, err := Run(rw, intact.body()); err != nil {
				t.Fatalf("record: %v", err)
			}
			dropOp(t, rec, m.src, opSend)
			_, err = Replay(p.world(p.run), rec)
			requireUnmatched(t, "replay", err, m, tag)
			return
		}
		rw := p.world(p.rec)
		rec := NewRecording()
		rw.Record = rec
		if _, err := Run(rw, p.body()); err != nil {
			t.Fatalf("record: %v", err)
		}
		dw, pw := p.world(p.run), p.world(p.run)
		dw.Metrics, pw.Metrics = obs.NewRegistry(), obs.NewRegistry()
		direct, err := Run(dw, p.body())
		if err != nil {
			t.Fatalf("direct: %v", err)
		}
		replayed, err := Replay(pw, rec)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		requireSameRun(t, "replay", direct, replayed, dw.Metrics, pw.Metrics)
	})
}

// recordProgram runs fn at n ranks and 600 MHz with a recording attached
// and returns the recording.
func recordProgram(t *testing.T, n int, fn RankFunc) *Recording {
	t.Helper()
	w := testWorld(n, 600)
	rec := NewRecording()
	w.Record = rec
	if _, err := Run(w, fn); err != nil {
		t.Fatal(err)
	}
	return rec
}

// findOp returns the chunk and index of the first op of kind on rank's
// tape.
func findOp(t *testing.T, rec *Recording, rank int, kind opKind) (chunk, i int) {
	t.Helper()
	for c, ops := range rec.tapes[rank].ops {
		for i := range ops {
			if ops[i].kind == kind {
				return c, i
			}
		}
	}
	t.Fatalf("rank %d's tape holds no op of kind %d", rank, kind)
	return 0, 0
}

// dropOp deletes the first op of kind from rank's tape.
func dropOp(t *testing.T, rec *Recording, rank int, kind opKind) {
	t.Helper()
	c, i := findOp(t, rec, rank, kind)
	rec.tapes[rank].ops[c] = slices.Delete(rec.tapes[rank].ops[c], i, i+1)
}

// TestReplayKeepsMailboxBound: a sender that runs 3,000 eager messages
// ahead of its receiver waits whenever its queue holds mailboxDepth of
// them, in replay as in the engine, so no queue grows past the bound; and
// the replay still equals the direct run.
func TestReplayKeepsMailboxBound(t *testing.T) {
	const msgs = 3000
	prog := func(c *Ctx) error {
		buf := []float64{1}
		for i := 0; i < msgs; i++ {
			var err error
			if c.Rank() == 0 {
				err = c.Send(1, 0, buf, 0)
			} else {
				_, err = c.Recv(0, 0)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	rec := recordProgram(t, 2, prog)
	w := testWorld(2, 1400)
	direct, err := Run(w, prog)
	if err != nil {
		t.Fatal(err)
	}
	w.traceHint = rec.events
	e := newEngine(w)
	if err := e.replay(rec.tapes); err != nil {
		t.Fatal(err)
	}
	for key, q := range e.queues {
		if len(q.buf) > mailboxDepth {
			t.Errorf("queue %d grew to %d slots, past the mailbox bound of %d", key, len(q.buf), mailboxDepth)
		}
	}
	requireIdentical(t, "backpressured replay", direct, e.result())
}

// TestReplayReportsBrokenTapes: a tape that cannot have come from a
// successful run still fails cleanly. A receive whose tag the queued
// message does not carry is reported as a direct run reports it, and a
// tape whose ranks all wait on events that never come ends in ErrDeadlock
// instead of hanging.
func TestReplayReportsBrokenTapes(t *testing.T) {
	prog := func(c *Ctx) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 5, []float64{1, 2}, 0); err != nil {
				return err
			}
		} else if _, err := c.Recv(0, 5); err != nil {
			return err
		}
		return c.Barrier()
	}
	w := testWorld(2, 600)

	rec := recordProgram(t, 2, prog)
	c, i := findOp(t, rec, 1, opRecv)
	rec.tapes[1].ops[c][i].tag = 6
	if _, err := Replay(w, rec); err == nil || !strings.Contains(err.Error(), "expected tag 6 from rank 0, got 5") {
		t.Errorf("replay with a mismatched tag: err = %v", err)
	}

	rec = recordProgram(t, 2, prog)
	dropOp(t, rec, 0, opSend)
	if _, err := Replay(w, rec); !errors.Is(err, ErrDeadlock) {
		t.Errorf("replay of a receive no send matches: err = %v, want ErrDeadlock", err)
	}

	rec = recordProgram(t, 2, prog)
	dropOp(t, rec, 0, opBarrier)
	if _, err := Replay(w, rec); !errors.Is(err, ErrDeadlock) {
		t.Errorf("replay of a barrier one rank skips: err = %v, want ErrDeadlock", err)
	}
}
