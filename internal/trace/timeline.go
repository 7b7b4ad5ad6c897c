package trace

import (
	"fmt"
	"sort"
	"strings"
)

// TimelineCSV renders the log as comma-separated rows
// (rank,phase,kind,start,end,duration), ordered by rank and start time —
// loadable into any plotting tool to draw a Gantt chart of the run.
func (l *Log) TimelineCSV() string {
	events := append([]Event(nil), l.Events()...)
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Rank != events[j].Rank {
			return events[i].Rank < events[j].Rank
		}
		return events[i].Start < events[j].Start
	})
	var b strings.Builder
	b.WriteString(timelineHeader + "\n")
	for _, e := range events {
		fmt.Fprintf(&b, "%d,%s,%s,%.9f,%.9f,%.9f,%.2f\n",
			e.Rank, e.Phase, e.Kind, e.Start, e.End, e.Duration(), e.Watts)
	}
	return b.String()
}

// timelineHeader is the first row TimelineCSV emits.
const timelineHeader = "rank,phase,kind,start,end,duration,watts"

// CriticalPhase returns the phase with the largest summed duration and its
// share of all recorded time.
func (l *Log) CriticalPhase() (phase string, share float64) {
	by := l.ByPhase()
	total := 0.0
	for p, sec := range by {
		total += sec
		// Strict-greater with a name tie-break keeps the result independent
		// of map iteration order when two phases have equal durations.
		//palint:ignore floateq -- exact equality is the tie-break condition itself; a tolerance would reintroduce order dependence
		if phase == "" || sec > by[phase] || (sec == by[phase] && p < phase) {
			phase = p
		}
	}
	if total == 0 {
		return "", 0
	}
	return phase, by[phase] / total
}
