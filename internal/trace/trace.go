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

// Log is an append-only collection of events for one rank. Ranks each own a
// Log (no locking needed); Merge combines them after the run.
type Log struct {
	events []Event
}

// Append adds one event. Events with non-positive duration are kept: zero
// intervals are legal (e.g. empty compute), negative ones indicate a
// simulator bug and are surfaced by Validate.
func (l *Log) Append(e Event) { l.events = append(l.events, e) }

// Grow reserves capacity for n further events, for callers that know the
// final size in advance (e.g. a replayed run, whose event count matches the
// recorded one).
func (l *Log) Grow(n int) {
	if free := cap(l.events) - len(l.events); free < n {
		grown := make([]Event, len(l.events), len(l.events)+n)
		copy(grown, l.events)
		l.events = grown
	}
}

// Events returns the recorded events in insertion order.
func (l *Log) Events() []Event { return l.events }

// Len returns the number of recorded events.
func (l *Log) Len() int { return len(l.events) }

// Validate reports an error when any event has negative duration or events
// of the same rank overlap going backwards in time.
func (l *Log) Validate() error {
	lastEnd := map[int]float64{}
	for i, e := range l.events {
		if e.End < e.Start {
			return fmt.Errorf("trace: event %d has negative duration: %+v", i, e)
		}
		if e.Start < lastEnd[e.Rank]-1e-12 {
			return fmt.Errorf("trace: event %d starts before rank %d's previous end", i, e.Rank)
		}
		lastEnd[e.Rank] = e.End
	}
	return nil
}

// Merge returns a new log holding the events of all inputs, ordered by
// (rank, start time); events with equal keys keep their input order.
// Per-rank logs passed in rank order are usually ordered already, since a
// rank appends at its own clock, which never goes backwards. So Merge sorts
// only when some event comes before its predecessor: a stable sort leaves
// ordered input unchanged, and the one-pass check costs far less.
func Merge(logs ...*Log) *Log {
	total := 0
	for _, l := range logs {
		total += len(l.events)
	}
	out := &Log{events: make([]Event, 0, total)}
	for _, l := range logs {
		out.events = append(out.events, l.events...)
	}
	ev := out.events
	for i := 1; i < len(ev); i++ {
		if eventBefore(&ev[i], &ev[i-1]) {
			sort.SliceStable(ev, func(a, b int) bool { return eventBefore(&ev[a], &ev[b]) })
			break
		}
	}
	return out
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
	for _, e := range l.events {
		if e.Kind >= 0 && e.Kind < NumKinds {
			t[e.Kind] += e.Duration()
		}
	}
	return t
}

// ByPhase returns the summed duration per phase label across all ranks.
func (l *Log) ByPhase() map[string]float64 {
	m := map[string]float64{}
	for _, e := range l.events {
		m[e.Phase] += e.Duration()
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
