package mpi

import (
	"errors"
	"fmt"
)

// This file is the rank runtime: a discrete-event engine that executes a
// job's ranks as cooperative coroutines.
//
// Ranks run as goroutines (the cheapest coroutine Go offers), but exactly
// one is ever runnable. A single execution token is handed from rank to
// rank; a rank that would block parks itself and pops the next runnable
// rank from an indexed min-heap ordered by (virtual clock, rank). The chain
// of token hand-offs serializes every access to the engine state — no
// locks, no channel select, and bit-identical results at any GOMAXPROCS,
// because the wake order is a pure function of virtual time.
//
// Frozen-digest contract: all timing arithmetic lives in the Ctx/p2p/coll
// code, and the engine only decides how a rank blocks and is woken. Its
// outputs are pinned by digests that a second, goroutine-per-rank runtime
// with channel mailboxes produced before it was retired
// (testdata/chaos_program.golden here, the kernel matrix in internal/npb):
// per-pair FIFO message order and collective epoch semantics must keep
// TimelineCSV, energy totals, metric snapshots and fault-injection draw
// sequences byte-identical to them.
//
// Replay (record.go) drives the same queues, heap and epochs from one
// goroutine, without the token: a rank that would park is set aside on
// the same condition (hasRoom, hasMail, a rendezvous or an epoch in
// progress) and resumed from the heap when the event makes it runnable.

// ErrDeadlock is returned by every parked rank when the engine finds all
// live ranks blocked with no runnable work: a genuine communication
// deadlock in virtual time (e.g. two ranks in matched rendezvous sends).
var ErrDeadlock = errors.New("mpi: deadlock: every live rank is blocked")

// mailboxDepth plays the role of MPICH's eager-buffer pool: a sender with
// this many undelivered messages to one peer parks until the receiver
// drains some — as real MPI does when its unexpected-message queue fills.
const mailboxDepth = 1024

// evItem is one heap entry: a runnable rank keyed by its virtual clock.
// Ties break toward the lower rank, making the wake order total and
// deterministic.
type evItem struct {
	key  float64
	rank int32
}

// evQueue is one src→dst message queue. A plain ring buffer suffices
// because only the token holder ever touches it; the waiter fields park at
// most one receiver and one backpressured sender.
type evQueue struct {
	buf        []message
	head, n    int
	waiter     int // rank parked in recv on this queue, -1 if none
	sendWaiter int // rank parked on mailboxDepth backpressure, -1 if none
}

//palint:hotpath
func (q *evQueue) push(m message) {
	if q.n == len(q.buf) {
		grown := make([]message, max(4, 2*len(q.buf))) //palint:ignore hotalloc -- ring growth is amortized: capacity doubles to the queue's working set and is then reused for the rest of the run
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = m
	q.n++
}

//palint:hotpath
func (q *evQueue) pop() message {
	m := q.buf[q.head]
	q.buf[q.head] = message{} // drop payload references so buffers can be collected
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return m
}

// collSnapshot is the outcome of one collective synchronization epoch:
// every rank's deposit, plus the results all ranks share. Those are
// computed once per epoch, not by every rank, so that a collective costs
// O(N) rather than O(N²) work.
type collSnapshot struct {
	payloads []any
	// entry is max(0, entry clocks), folded in by each arrival.
	entry float64
	// red, redOp and redErr are an Allreduce epoch's result, the op it was
	// computed with and its failure, valid once reduced is set (see
	// reduce). red is the snapshot's own buffer, reused every other epoch.
	red     []float64
	redOp   Op
	redErr  error
	reduced bool
}

// engine is the shared state of one running job. Every field is touched
// only by the token holder.
type engine struct {
	w    World
	ctxs []*Ctx
	heap []evItem
	// queues holds the src→dst mailboxes, keyed src*n+dst and created on
	// first use: kernels are neighbour- or collective-structured, so most of
	// the n² pairs never exchange a message (at N = 1024 an eager n² array
	// would dwarf the simulation itself).
	queues map[int]*evQueue
	// live counts ranks whose bodies have not returned.
	live int
	// aborted is set when any rank fails (or a deadlock is detected); parked
	// ranks observe it as they are woken for teardown.
	aborted bool
	// deadlocked distinguishes a detected virtual-time deadlock from an
	// ordinary rank error.
	deadlocked bool
	// finish is closed by the last exiting rank; Run waits on it.
	finish chan struct{}

	// snaps are the two rotating collective-epoch containers and epoch the
	// number of completed epochs; see deposit.
	snaps [2]collSnapshot
	epoch int
	// arrived counts the deposits of the epoch in progress.
	arrived int
}

func newEngine(w World) *engine {
	n := w.N
	e := &engine{
		w:      w,
		ctxs:   make([]*Ctx, n),
		heap:   make([]evItem, 0, n),
		queues: make(map[int]*evQueue),
		live:   n,
	}
	for i := range e.snaps {
		e.snaps[i] = collSnapshot{payloads: make([]any, n)}
	}
	for rank := range e.ctxs {
		e.ctxs[rank] = newCtx(e, rank)
	}
	return e
}

// run executes fn on every rank and returns each rank's error. The rank
// goroutines are cooperative coroutines: each waits for the token, runs its
// body (parking inside communication primitives), and retires through
// exit. run seeds the heap with every rank at virtual time zero, hands the
// token to the first, and waits for the last to leave.
func (e *engine) run(fn RankFunc) []error {
	errs := make([]error, len(e.ctxs))
	e.finish = make(chan struct{})
	for rank, c := range e.ctxs {
		c.resume = make(chan struct{}, 1)
		//palint:ignore nakedgo -- coroutine fan-out: each goroutine writes only its own errs slot and all engine state is serialized by the execution token; the finish channel publishes the writes to Run
		go func(rank int, c *Ctx) {
			<-c.resume
			if err := fn(c); err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
				e.abortAll()
			}
			e.exit(c)
		}(rank, c)
	}
	for rank := range e.ctxs {
		e.makeRunnable(rank)
	}
	e.handoff()
	<-e.finish
	return errs
}

//palint:hotpath
func (e *engine) queue(src, dst int) *evQueue {
	key := src*e.w.N + dst
	if q, ok := e.queues[key]; ok {
		return q
	}
	q := &evQueue{waiter: -1, sendWaiter: -1} //palint:ignore hotalloc -- one queue per communicating pair for the whole run; misses only on a pair's first message
	e.queues[key] = q
	return q
}

// heapPush inserts a runnable rank, keeping the min-heap ordered by
// (virtual clock, rank).
//
//palint:hotpath
func (e *engine) heapPush(it evItem) {
	e.heap = append(e.heap, it) //palint:ignore hotalloc -- capacity is preallocated to N in newEngine; at most N ranks are ever queued
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(e.heap[i], e.heap[p]) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

//palint:hotpath
func (e *engine) heapPop() evItem {
	top := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && evLess(e.heap[l], e.heap[s]) {
			s = l
		}
		if r < last && evLess(e.heap[r], e.heap[s]) {
			s = r
		}
		if s == i {
			break
		}
		e.heap[i], e.heap[s] = e.heap[s], e.heap[i]
		i = s
	}
	return top
}

//palint:hotpath
func evLess(a, b evItem) bool {
	if a.key != b.key { //palint:ignore floateq -- heap ordering needs a total order on exact clock values, not a tolerance
		return a.key < b.key
	}
	return a.rank < b.rank
}

// makeRunnable queues a parked rank for the token, keyed by its (frozen,
// since it is parked) virtual clock.
//
//palint:hotpath
func (e *engine) makeRunnable(rank int) {
	c := e.ctxs[rank]
	if c.exited || c.queued {
		return
	}
	c.queued = true
	e.heapPush(evItem{key: c.clock, rank: int32(rank)})
}

// handoff passes the execution token to the runnable rank with the lowest
// virtual clock. Called by a rank that is about to park or exit — or by run
// to start the job — so exactly one rank runs at any instant.
//
//palint:hotpath
func (e *engine) handoff() {
	if len(e.heap) == 0 {
		e.breakDeadlock()
	}
	c := e.ctxs[e.heapPop().rank]
	c.queued = false
	c.resume <- struct{}{}
}

// breakDeadlock handles an empty run heap with live ranks remaining: every
// live rank is parked and none can ever be woken — a communication deadlock
// in virtual time. Wake them all for teardown; each returns ErrDeadlock
// from its pending operation.
func (e *engine) breakDeadlock() {
	e.deadlocked = true
	e.abortAll()
	if len(e.heap) == 0 {
		// Unreachable: exit closes finish when the last rank leaves, and a
		// non-last exit hands the token to someone, so live > 0 implies at
		// least one blocked rank.
		panic("mpi: engine: live ranks but nothing runnable or blocked")
	}
}

// abortAll starts job teardown: every parked rank is woken to observe the
// abort and unwind.
func (e *engine) abortAll() {
	e.aborted = true
	for rank, c := range e.ctxs {
		if !c.exited && c.blocked {
			e.makeRunnable(rank)
		}
	}
}

// park blocks the calling rank until another rank wakes it. Returns nil on
// a genuine wake-up and an error when the job is being torn down.
//
//palint:hotpath
func (e *engine) park(c *Ctx) error {
	if e.aborted {
		return e.teardownErr()
	}
	c.blocked = true
	e.handoff()
	<-c.resume
	c.blocked = false
	if e.aborted {
		return e.teardownErr()
	}
	return nil
}

func (e *engine) teardownErr() error {
	if e.deadlocked {
		return ErrDeadlock
	}
	return ErrAborted
}

// exit retires the calling rank's body. The last rank out signals Run;
// anyone else passes the token on.
func (e *engine) exit(c *Ctx) {
	c.exited = true
	e.live--
	if e.live == 0 {
		close(e.finish)
		return
	}
	e.handoff()
}

// send enqueues m on the c→dst queue, waking a parked receiver and parking
// the sender while the queue holds mailboxDepth messages.
//
//palint:hotpath
func (e *engine) send(c *Ctx, dst int, m message) error {
	q := e.queue(c.rank, dst)
	for !e.hasRoom(c, q) {
		if err := e.park(c); err != nil {
			q.sendWaiter = -1
			return err
		}
	}
	e.put(q, m)
	return nil
}

// hasRoom reports whether c may queue another message on q. When q holds
// mailboxDepth messages, c becomes q's waiting sender instead.
//
//palint:hotpath
func (e *engine) hasRoom(c *Ctx, q *evQueue) bool {
	if q.n < mailboxDepth {
		return true
	}
	q.sendWaiter = c.rank
	return false
}

// hasMail reports whether q holds a message for c. When it is empty, c
// becomes q's waiting receiver instead.
//
//palint:hotpath
func (e *engine) hasMail(c *Ctx, q *evQueue) bool {
	if q.n > 0 {
		return true
	}
	q.waiter = c.rank
	return false
}

// put enqueues m on q and makes the receiver waiting on q runnable.
//
//palint:hotpath
func (e *engine) put(q *evQueue, m message) {
	q.push(m)
	if q.waiter >= 0 {
		w := q.waiter
		q.waiter = -1
		e.makeRunnable(w)
	}
}

// recv dequeues the next message from src, parking until one arrives.
//
//palint:hotpath
func (e *engine) recv(c *Ctx, src int) (message, error) {
	q := e.queue(src, c.rank)
	for !e.hasMail(c, q) {
		if err := e.park(c); err != nil {
			q.waiter = -1
			return message{}, err
		}
	}
	return e.take(q), nil
}

// take dequeues q's next message and makes the sender waiting for room on
// q runnable.
//
//palint:hotpath
func (e *engine) take(q *evQueue) message {
	m := q.pop()
	if q.sendWaiter >= 0 {
		s := q.sendWaiter
		q.sendWaiter = -1
		e.makeRunnable(s)
	}
	return m
}

// waitRendezvous parks the sender of a rendezvous message until the
// receiver completes the transfer and reports the sender-side finish time.
//
//palint:hotpath
func (e *engine) waitRendezvous(c *Ctx) (float64, error) {
	c.rdvWaiting = true
	for c.rdvWaiting {
		if err := e.park(c); err != nil {
			c.rdvWaiting = false
			return 0, err
		}
	}
	return c.rdvDone, nil
}

// completeRendezvous is the receiver-side half of waitRendezvous: it
// delivers the sender's completion time and wakes it. A sender already torn
// down is left alone.
//
//palint:hotpath
func (e *engine) completeRendezvous(src int, doneAt float64) {
	c := e.ctxs[src]
	if c.exited || !c.rdvWaiting {
		return
	}
	c.rdvDone = doneAt
	c.rdvWaiting = false
	e.makeRunnable(src)
}

// deposit is the collective epoch: the calling rank writes its payload
// into the epoch's container and folds its entry clock into the
// container's running maximum, and the last arrival completes the epoch
// and wakes every parked participant; earlier arrivals park until then.
// Every rank returns the same snapshot, whose contents depend only on the
// deposits, so every collective is deterministic. The entry maximum costs
// O(1) per arrival, so the epoch pays O(N) for it once instead of each
// rank scanning all N clocks.
//
// Two containers rotate instead of one being allocated per epoch. Reusing
// container k&1 for epoch k+2 is safe: a rank deposits for epoch k+2 only
// after it finished reading epoch k+1's snapshot, which it read only after
// epoch k+1 completed — and that needed every rank's epoch k+1 deposit,
// made only after that rank finished reading epoch k. So no reader of
// container k&1 remains by the time it is overwritten, and the first
// deposit of epoch k+2 may reset the container's shared results (entry
// maximum, cached reduction) for the new epoch. The deposited payload
// values themselves are not recycled here: each rank reclaims its own
// deposit one epoch later (see Ctx.collective).
//
//palint:hotpath
func (e *engine) deposit(c *Ctx, payload any) (*collSnapshot, error) {
	snap := e.arrive(c, payload)
	for c.inSync {
		if err := e.park(c); err != nil {
			c.inSync = false
			return nil, err
		}
	}
	return snap, nil
}

// arrive is deposit's arrival: it folds c into the epoch in progress and
// returns the epoch's container. The last arrival completes the epoch and
// makes every waiting participant runnable; an earlier one is left inSync
// and must wait until then.
//
//palint:hotpath
func (e *engine) arrive(c *Ctx, payload any) *collSnapshot {
	snap := &e.snaps[e.epoch&1]
	if e.arrived == 0 {
		snap.entry, snap.reduced = 0, false
	}
	if c.clock > snap.entry {
		snap.entry = c.clock
	}
	snap.payloads[c.rank] = payload
	e.arrived++
	if e.arrived < e.w.N {
		c.inSync = true
		return snap
	}
	e.arrived = 0
	e.epoch++
	for rank, p := range e.ctxs {
		if p.inSync {
			p.inSync = false
			e.makeRunnable(rank)
		}
	}
	return snap
}
