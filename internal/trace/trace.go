// Package trace records what each simulated rank was doing over virtual
// time. Traces let the experiment harness attribute execution time to
// computation vs parallel overhead — the decomposition the paper's SP
// parameterization performs analytically — and let the DVFS scheduler
// (package dvfs) identify communication-bound phases.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies an interval of a rank's virtual time.
type Kind int

const (
	// Compute is time spent executing kernel instructions.
	Compute Kind = iota
	// Comm is time spent inside a communication call (including the wait
	// for the peer and the wire transfer).
	Comm
	// Fault is virtual time injected by the chaos harness (package faults):
	// latency jitter, transient bandwidth degradation and straggler compute
	// stretch. Fault-free runs record no such events, so their traces stay
	// bit-identical to the golden reproduction.
	Fault
	// Retry is virtual time spent in injected retransmission timeouts and
	// exponential backoff after a dropped message.
	Retry
	// NumKinds is the number of interval classes.
	NumKinds
)

// kindNames is the single source of the kind spellings: String indexes it,
// so no exporter or test ever switches on a magic string.
var kindNames = [NumKinds]string{
	Compute: "compute",
	Comm:    "comm",
	Fault:   "fault",
	Retry:   "retry",
}

// String names the kind.
func (k Kind) String() string {
	if k >= 0 && k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one interval on one rank.
type Event struct {
	// Rank is the MPI rank the interval belongs to.
	Rank int
	// Phase is the kernel-assigned label, e.g. "fft-z" or "exchange".
	Phase string
	// Kind classifies the interval.
	Kind Kind
	// Start and End are virtual-time seconds.
	Start, End float64
	// Watts is the node's power draw during the interval, letting the
	// timeline double as a power profile.
	Watts float64
}

// Duration returns End − Start.
func (e Event) Duration() float64 { return e.End - e.Start }

// Log is an append-only collection of events. Ranks each own a Log (no
// locking needed); Merge combines them after the run. Events live in
// chunks (see AppendChunk), so Merge can link the chunks of ordered input
// instead of copying them.
type Log struct {
	chunks [][]Event
}

const minChunk, maxChunk = 32, 8192

// AppendChunk appends v to the last of chunks, or to a new chunk when that
// one is full, and returns the chunks. A chunk is allocated once and never
// copied: the first holds 32 entries, and each next one twice its
// predecessor, up to 8,192. A short sequence (most ranks' at 1024 ranks)
// thus allocates little and a long one about its own size, where a slice
// grown by append allocates several times its final size and copies most
// of it on the way. Trace logs and the mpi runtime's op tapes grow this way.
func AppendChunk[T any](chunks [][]T, v T) [][]T {
	n := len(chunks)
	if n == 0 || len(chunks[n-1]) == cap(chunks[n-1]) {
		next := minChunk
		if n > 0 {
			next = min(max(2*cap(chunks[n-1]), minChunk), maxChunk)
		}
		chunks = append(chunks, make([]T, 0, next))
		n++
	}
	chunks[n-1] = append(chunks[n-1], v)
	return chunks
}

// Append adds one event. Events with non-positive duration are kept: zero
// intervals are legal (e.g. empty compute), negative ones indicate a
// simulator bug and are surfaced by Validate.
func (l *Log) Append(e Event) { l.chunks = AppendChunk(l.chunks, e) }

// Grow reserves capacity for n further events, for callers that know the
// final size in advance (e.g. a replayed run, whose event count matches the
// recorded one): when the open chunk lacks room, the next chunk holds
// exactly n.
func (l *Log) Grow(n int) {
	free := 0
	if k := len(l.chunks); k > 0 {
		free = cap(l.chunks[k-1]) - len(l.chunks[k-1])
	}
	if n > free {
		l.chunks = append(l.chunks, make([]Event, 0, n))
	}
}

// Events returns the recorded events in insertion order: a log's one chunk,
// capped so that an append to the result cannot reach the log, or else a
// fresh copy. The caller must not modify the events.
func (l *Log) Events() []Event {
	switch len(l.chunks) {
	case 0:
		return nil
	case 1:
		c := l.chunks[0]
		return c[:len(c):len(c)]
	}
	out := make([]Event, 0, l.Len())
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	n := 0
	for _, c := range l.chunks {
		n += len(c)
	}
	return n
}

// Validate reports an error when any event has negative duration or events
// of the same rank overlap going backwards in time.
func (l *Log) Validate() error {
	lastEnd := map[int]float64{}
	i := 0
	for _, c := range l.chunks {
		for _, e := range c {
			if e.End < e.Start {
				return fmt.Errorf("trace: event %d has negative duration: %+v", i, e)
			}
			if e.Start < lastEnd[e.Rank]-1e-12 {
				return fmt.Errorf("trace: event %d starts before rank %d's previous end", i, e.Rank)
			}
			lastEnd[e.Rank] = e.End
			i++
		}
	}
	return nil
}

// Merge returns a log holding the events of all inputs, ordered by (rank,
// start time); events with equal keys keep their input order. Per-rank logs
// passed in rank order are usually ordered already, since a rank appends at
// its own clock, which never goes backwards. Merge then links the inputs'
// chunks into the new log without copying an event: each linked chunk is
// capped at its length, so a later Append to an input or to the merged log
// allocates a chunk of its own and neither sees the other's events. Input
// out of order is copied into one new chunk and stable-sorted.
func Merge(logs ...*Log) *Log {
	out := link(logs)
	if !out.ordered() {
		out.sortEvents()
	}
	return out
}

// MergeByPhase returns Merge(logs...) and its ByPhase, bit for bit. When
// the inputs are in order it reads each event once, checking the order
// and adding the event to its phase's sum in the same walk; only input out
// of order is sorted and then read again.
func MergeByPhase(logs ...*Log) (*Log, map[string]float64) {
	out := link(logs)
	phases, ok := out.orderedByPhase()
	if !ok {
		out.sortEvents()
		phases = out.ByPhase()
	}
	return out, phases
}

// link returns a log of the inputs' chunks, each capped at its length.
func link(logs []*Log) *Log {
	out := &Log{}
	for _, l := range logs {
		for _, c := range l.chunks {
			if len(c) > 0 {
				out.chunks = append(out.chunks, c[:len(c):len(c)])
			}
		}
	}
	return out
}

// sortEvents replaces the log's chunks with one chunk of its events, stably
// sorted by (rank, start time).
func (l *Log) sortEvents() {
	ev := append([]Event(nil), l.Events()...)
	sort.SliceStable(ev, func(a, b int) bool { return eventBefore(&ev[a], &ev[b]) })
	l.chunks = [][]Event{ev}
}

// ordered reports whether no event comes before its predecessor.
func (l *Log) ordered() bool {
	var prev *Event
	for _, c := range l.chunks {
		for i := range c {
			if prev != nil && eventBefore(&c[i], prev) {
				return false
			}
			prev = &c[i]
		}
	}
	return true
}

// orderedByPhase is ordered and ByPhase in one walk: it returns the
// summed duration per phase, added in log order, or false at the first
// event that comes before its predecessor. Each phase sums in a slot of
// its own, found by map lookup only when the label changes from the
// previous event's: every slot receives its events in log order, as
// ByPhase's map entries do, so the sums are the same bits.
func (l *Log) orderedByPhase() (map[string]float64, bool) {
	slot := map[string]int{}
	var sums []float64
	var prev *Event
	cur := -1
	for _, c := range l.chunks {
		for i := range c {
			e := &c[i]
			if prev != nil && eventBefore(e, prev) {
				return nil, false
			}
			if cur < 0 || e.Phase != prev.Phase {
				var ok bool
				if cur, ok = slot[e.Phase]; !ok {
					cur = len(sums)
					slot[e.Phase] = cur
					sums = append(sums, 0)
				}
			}
			sums[cur] += e.Duration()
			prev = e
		}
	}
	m := make(map[string]float64, len(slot))
	for p, i := range slot {
		m[p] = sums[i]
	}
	return m, true
}

// eventBefore orders events by (rank, start time).
func eventBefore(a, b *Event) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Start < b.Start
}

// TotalByKind returns the summed duration of each kind across all ranks.
func (l *Log) TotalByKind() [NumKinds]float64 {
	var t [NumKinds]float64
	for _, c := range l.chunks {
		for _, e := range c {
			if e.Kind >= 0 && e.Kind < NumKinds {
				t[e.Kind] += e.Duration()
			}
		}
	}
	return t
}

// ByPhase returns the summed duration per phase label across all ranks,
// adding the events one at a time in log order.
func (l *Log) ByPhase() map[string]float64 {
	m := map[string]float64{}
	for _, c := range l.chunks {
		for _, e := range c {
			m[e.Phase] += e.Duration()
		}
	}
	return m
}

// Summary renders a per-phase duration table sorted by descending time, for
// human inspection.
func (l *Log) Summary() string {
	type row struct {
		phase string
		sec   float64
	}
	var rows []row
	for p, s := range l.ByPhase() {
		rows = append(rows, row{p, s})
	}
	sort.Slice(rows, func(i, j int) bool {
		//palint:ignore floateq -- exact inequality as sort tie-break: equal values fall through to the name key
		if rows[i].sec != rows[j].sec {
			return rows[i].sec > rows[j].sec
		}
		return rows[i].phase < rows[j].phase
	})
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %12.6f s\n", r.phase, r.sec)
	}
	return b.String()
}
