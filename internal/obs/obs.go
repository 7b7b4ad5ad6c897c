// Package obs is the simulator's observability layer: named spans
// (campaign, request and benchmark intervals), a metrics registry
// (counters, gauges, fixed-bucket histograms), and deterministic exporters
// — Chrome trace-event JSON viewable in Perfetto, a per-phase energy
// attribution report, and a reproducibility run manifest. A run's per-rank
// phase timing is not a span tree: it is the run's trace log, which the
// trace and energy exporters read.
//
// Everything a simulated run exports is keyed by virtual time and derived
// state, never the wall clock, so two runs of the same seed produce
// byte-identical exports. The layer follows the nil-injector pattern of
// package faults: a nil *Registry on mpi.World costs the simulation nothing
// — no allocation, no branch beyond a pointer test, bit-identical traces —
// which the mpi alloc and golden tests enforce.
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

// Span is one named interval. Campaign spans use the summed virtual
// seconds of their cells (campaigns have no single virtual clock); request
// and benchmark spans use wall seconds since the server or benchmark
// started.
type Span struct {
	// ID is the span's index in its recorder's creation order.
	ID int `json:"id"`
	// Parent is the ID of the enclosing span, or -1 for a root.
	Parent int `json:"parent"`
	// Name labels the span: "campaign:ft", "req:sweep", "npb:run:ft".
	Name string `json:"name"`
	// Rank picks the exporter track the span renders on; -1 for track 0.
	Rank int `json:"rank"`
	// Start and End bound the span in seconds.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Attrs carries the span's attributes (cells, request_id, ...).
	Attrs []Attr `json:"attrs,omitempty"`
}

// Recorder collects named spans — campaign, request and benchmark
// intervals — plus a metrics registry. Per-rank phase timing is not a span:
// it lives in the run's trace log (mpi.Result.Trace), which the exporters
// read directly.
type Recorder struct {
	reg *Registry

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns a recorder with its own private metrics registry, so
// concurrent recorders and tests never share counts.
func NewRecorder() *Recorder {
	return &Recorder{reg: NewRegistry()}
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

// Spans returns a copy of the recorded spans in creation order; each span's
// ID is its index.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
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
