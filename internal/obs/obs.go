// Package obs is the simulator's observability layer: hierarchical spans
// (campaign → kernel run → rank → phase), a metrics registry (counters,
// gauges, fixed-bucket histograms), and deterministic exporters — Chrome
// trace-event JSON viewable in Perfetto, a per-phase energy attribution
// report, and a reproducibility run manifest.
//
// Everything is keyed by virtual time and derived state, never the wall
// clock, so two runs of the same seed produce byte-identical exports. The
// layer follows the nil-injector pattern of package faults: a nil
// *Recorder on mpi.World costs the simulation nothing — no allocation, no
// branch beyond a pointer test, bit-identical traces — which the mpi alloc
// and golden tests enforce.
//
// Import discipline: package mpi imports obs, so obs may depend only on
// trace, power and units. Exporters therefore take a *trace.Log and plain
// values rather than an mpi.Result.
package obs

import (
	"sync"
	"sync/atomic"
)

// Attr is one key/value attribute on a span. Values are pre-rendered
// strings so span storage stays comparison- and export-friendly.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A builds a string attribute.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// F builds a numeric attribute, rendered shortest-exact so attributes are
// deterministic.
func F(key string, value float64) Attr { return Attr{Key: key, Value: fmtFloat(value)} }

// Span is one named interval in the hierarchy. Start and End are virtual
// seconds for run, rank and phase spans; campaign spans use summed virtual
// seconds of their cells (campaigns have no single virtual clock).
type Span struct {
	// ID is the span's index in the recorder's deterministic ordering.
	ID int `json:"id"`
	// Parent is the ID of the enclosing span, or -1 for a root.
	Parent int `json:"parent"`
	// Name labels the span: "campaign:ft", "run", "rank 3", "ft-fft-z".
	Name string `json:"name"`
	// Rank is the owning rank for rank and phase spans, -1 otherwise.
	Rank int `json:"rank"`
	// Start and End bound the span in virtual seconds.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Attrs carries the span's attributes (N, f, kernel, CPI terms, ...).
	Attrs []Attr `json:"attrs,omitempty"`
}

// Duration returns End − Start.
func (s Span) Duration() float64 { return s.End - s.Start }

// RankLog is one rank's lock-free phase-span buffer. It is owned by the
// rank's goroutine: Phase and Finish may only be called from there, exactly
// like the rank's trace.Log, so recording needs no synchronization.
type RankLog struct {
	rank   int
	phases []Span
	open   string
	start  float64
	opened bool
	end    float64
	done   bool
}

// Phase closes the currently open phase span at now and opens a new one.
// Consecutive calls with the same name are collapsed by the caller
// (mpi.Ctx.SetPhase early-returns on no-change), mirroring trace semantics.
func (l *RankLog) Phase(name string, now float64) {
	if l.opened {
		l.phases = append(l.phases, Span{Name: l.open, Rank: l.rank, Start: l.start, End: now})
	}
	l.open, l.start, l.opened = name, now, true
}

// Finish closes the open phase span at now and seals the log.
func (l *RankLog) Finish(now float64) {
	if l.done {
		return
	}
	if l.opened {
		l.phases = append(l.phases, Span{Name: l.open, Rank: l.rank, Start: l.start, End: now})
		l.opened = false
	}
	l.end, l.done = now, true
}

// Recorder collects one instrumented kernel run — its run span, per-rank
// phase spans and run-scoped metrics — plus any surrounding campaign spans.
// A recorder instruments at most one mpi run (BeginRun panics on reuse);
// campaign-level recorders that never call BeginRun just collect top-level
// spans and metrics.
type Recorder struct {
	reg *Registry

	mu    sync.Mutex
	spans []Span
	runID int
	ranks []*RankLog
}

// NewRecorder returns a recorder with its own private metrics registry, so
// concurrent runs and tests never share counts.
func NewRecorder() *Recorder {
	return &Recorder{reg: NewRegistry(), runID: -1}
}

// Metrics returns the recorder's registry.
func (r *Recorder) Metrics() *Registry { return r.reg }

// StartSpan opens a span under parent (-1 for a root) and returns its ID.
// Safe from any goroutine; campaign code calls it around cached measures.
func (r *Recorder) StartSpan(parent int, name string, start float64, attrs ...Attr) int {
	return r.StartSpanAt(parent, name, -1, start, attrs...)
}

// StartSpanAt is StartSpan with an explicit track: rank selects the
// exporter track the span renders on (-1 for track 0). The serving layer
// uses it to spread concurrent request spans across tracks so overlapping
// requests stay readable in Perfetto.
func (r *Recorder) StartSpanAt(parent int, name string, rank int, start float64, attrs ...Attr) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Rank: rank, Start: start, Attrs: attrs})
	return id
}

// AddSpanAttrs appends attributes to an already-started span — outcomes
// that are only known at the end (status codes, cache dispositions).
// Unknown IDs are ignored.
func (r *Recorder) AddSpanAttrs(id int, attrs ...Attr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id >= 0 && id < len(r.spans) {
		r.spans[id].Attrs = append(r.spans[id].Attrs, attrs...)
	}
}

// EndSpan closes the span at end. Unknown IDs are ignored.
func (r *Recorder) EndSpan(id int, end float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id >= 0 && id < len(r.spans) {
		r.spans[id].End = end
	}
}

// BeginRun opens the "run" span and allocates one RankLog per rank. A
// recorder instruments exactly one run; a second BeginRun panics, because
// two runs sharing per-rank buffers would interleave nondeterministically.
func (r *Recorder) BeginRun(n int, start float64, attrs ...Attr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ranks != nil {
		panic("obs: Recorder.BeginRun called twice; use one Recorder per run")
	}
	r.runID = len(r.spans)
	r.spans = append(r.spans, Span{ID: r.runID, Parent: -1, Name: "run", Rank: -1, Start: start, Attrs: attrs})
	r.ranks = make([]*RankLog, n)
	for i := range r.ranks {
		r.ranks[i] = &RankLog{rank: i}
	}
}

// AddRunAttrs appends attributes to the run span (the caller's kernel name,
// chaos spec, ...). No-op before BeginRun.
func (r *Recorder) AddRunAttrs(attrs ...Attr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.runID >= 0 {
		r.spans[r.runID].Attrs = append(r.spans[r.runID].Attrs, attrs...)
	}
}

// Rank returns rank i's phase-span log. Only valid after BeginRun.
//
//palint:ignore atomicmix -- ranks is written once inside BeginRun before any rank goroutine starts; the mpi.Run barrier publishes it
func (r *Recorder) Rank(i int) *RankLog { return r.ranks[i] }

// EndRun closes the run span at the job's makespan.
func (r *Recorder) EndRun(makespan float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.runID >= 0 {
		r.spans[r.runID].End = makespan
	}
}

// Spans returns the full hierarchy in deterministic order: top-level spans
// in creation order, then per rank (ascending) one synthesized "rank i"
// span parented to the run span followed by that rank's phase spans. IDs
// are reassigned to match the returned order.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Span(nil), r.spans...)
	for _, l := range r.ranks {
		rankID := len(out)
		rs := Span{ID: rankID, Parent: r.runID, Name: "rank " + itoa(l.rank), Rank: l.rank, End: l.end}
		if len(l.phases) > 0 {
			rs.Start = l.phases[0].Start
		}
		out = append(out, rs)
		for _, p := range l.phases {
			p.ID = len(out)
			p.Parent = rankID
			out = append(out, p)
		}
	}
	return out
}

// itoa renders a small non-negative int without importing strconv twice
// over; ranks are tiny so the simple loop is fine.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 && i > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// globalRecorder is the process-wide observer campaign code reports spans
// to when one is installed (patrace/pachaos install one; tests and the
// plain reproduction leave it nil, which costs the store one atomic load).
var globalRecorder atomic.Pointer[Recorder]

// SetGlobal installs (or, with nil, removes) the process-wide recorder and
// returns the previous one so callers can restore it.
func SetGlobal(r *Recorder) *Recorder {
	prev := globalRecorder.Load()
	globalRecorder.Store(r)
	return prev
}

// Global returns the process-wide recorder, or nil when none is installed.
func Global() *Recorder { return globalRecorder.Load() }
