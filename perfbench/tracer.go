package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pasp/internal/obs"
)

// traceDir is where traced runs write their Chrome trace, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/traces"

// now reads the host clock. Host time is what a benchmark measures, so
// this is the one place the benchmark reads it.
func now() time.Time {
	return time.Now() //palint:ignore detsource -- the benchmark measures host time by definition
}

// tracer records a wall-clock span around every call the benchmark makes
// into a layer. Spans stay in memory in an obs.Recorder and are written at
// exit through the obs Chrome exporter.
type tracer struct {
	rec   *obs.Recorder
	epoch time.Time
}

func newTracer() *tracer {
	return &tracer{rec: obs.NewRecorder(), epoch: now()}
}

// span is one open span; a nil tracer hands out inert spans, so call sites
// stay unconditional.
type span struct {
	t  *tracer
	id int
}

// start opens a span named "<layer>:<call>" under parent (-1 for a root)
// on the given track.
func (t *tracer) start(parent int, name string, track int, attrs ...obs.Attr) span {
	if t == nil {
		return span{id: -1}
	}
	return span{t, t.rec.StartSpanAt(parent, name, track, now().Sub(t.epoch).Seconds(), attrs...)}
}

// end closes the span now.
func (s span) end() {
	if s.t != nil {
		s.t.rec.EndSpan(s.id, now().Sub(s.t.epoch).Seconds())
	}
}

// timed runs f inside a span and returns its wall time.
func (t *tracer) timed(parent int, name string, f func() error) (time.Duration, error) {
	sp := t.start(parent, name, -1)
	begin := now()
	err := f()
	d := now().Sub(begin)
	sp.end()
	return d, err
}

// write exports the spans, refusing a file that fails the trace-event
// validator.
func (t *tracer) write(workload string, seed uint64) error {
	data := obs.SpansChromeTrace(t.rec.Spans(), "perfbench "+workload)
	n, err := obs.ValidateChromeTrace(data)
	if err != nil {
		return fmt.Errorf("refusing to write an invalid trace: %w", err)
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d trace events to %s\n", n, path)
	return nil
}
