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
	events := append([]Event(nil), l.events...)
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

// PowerProfile integrates the per-event power draws into a cluster power
// time series sampled at the given interval: sample k covers
// [k·dt, (k+1)·dt) and holds the mean total watts across ranks. Events
// with zero Watts (older traces) contribute nothing.
func (l *Log) PowerProfile(dt float64, makespan float64) []float64 {
	if dt <= 0 || makespan <= 0 {
		return nil
	}
	n := int(makespan/dt) + 1
	samples := make([]float64, n)
	for _, e := range l.events {
		if e.Watts == 0 || e.End <= e.Start {
			continue
		}
		for k := int(e.Start / dt); k <= int(e.End/dt) && k < n; k++ {
			lo, hi := float64(k)*dt, float64(k+1)*dt
			if e.Start > lo {
				lo = e.Start
			}
			if e.End < hi {
				hi = e.End
			}
			if hi > lo {
				samples[k] += e.Watts * (hi - lo) / dt
			}
		}
	}
	return samples
}

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
