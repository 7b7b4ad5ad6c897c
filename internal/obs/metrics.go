package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of counters, gauges and fixed-bucket
// histograms. Instruments are created on first use and live for the
// registry's lifetime; Snapshot renders them as a deterministic, sorted
// exposition so two identical runs produce byte-identical metric dumps.
//
// Each mpi run's Recorder owns a private registry (so concurrent runs and
// tests never share counts); process-wide instrumentation — the campaign
// store's hit/miss counters — lives on the Default registry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// defaultRegistry holds the process-wide instruments (campaign-store hits
// and misses, campaigns measured). Run-scoped metrics live on each
// Recorder's own registry instead.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter is a monotone accumulator. The value is a float64 so the same
// instrument type serves event counts and accumulated virtual seconds; Add
// is a lock-free CAS loop, safe from any goroutine.
type Counter struct{ bits atomic.Uint64 }

// Add increases the counter by v (v ≥ 0 by convention; Add does not check).
//
//palint:hotpath
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a last-value-wins instrument.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
//
//palint:hotpath
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Add shifts the gauge by v (negative to decrease) in one lock-free CAS
// loop — the up/down instrument for in-flight request tracking, where Set
// from concurrent goroutines would lose updates.
//
//palint:hotpath
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets: bucket i counts values
// v ≤ Bounds[i] (cumulative-free, one bucket per observation), with one
// implicit overflow bucket for v > Bounds[len-1]. Observation is lock-free.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sumBits atomic.Uint64
	n       atomic.Int64
}

// Observe records one observation of v.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v in one update (the mpi layer uses it
// for a collective's n−1 equal-size messages).
//
//palint:hotpath
func (h *Histogram) ObserveN(v float64, n int64) {
	if n <= 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(n)
	h.n.Add(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v*float64(n))
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Quantile returns an upper bound on the q-quantile of the observations:
// the upper bound of the first bucket at which the cumulative count
// reaches q·n. Observations in the overflow bucket report +Inf. ok is
// false when the histogram is empty — the caller's signal to fall back to
// a configured default (the adaptive Retry-After path).
func (h *Histogram) Quantile(q float64) (v float64, ok bool) {
	n := h.n.Load()
	if n <= 0 {
		return 0, false
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i], true
			}
			return math.Inf(1), true
		}
	}
	return math.Inf(1), true
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket upper bounds on first use. Later calls for the same name
// return the existing instrument regardless of the bounds argument, so
// every caller of one name must pass the same bounds.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// MsgBytesBuckets is the standard bucket layout for message-size
// histograms: powers of four from 64 B to 1 MiB.
var MsgBytesBuckets = []float64{64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// SecondsBuckets is the standard bucket layout for virtual-time
// histograms: decades from 1 µs to 10 ks.
var SecondsBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10, 100, 1e3, 1e4}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// GaugePoint is one gauge in a snapshot.
type GaugePoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramPoint is one histogram in a snapshot. Counts[i] holds the
// observations with value ≤ Bounds[i]; the final element of Counts is the
// overflow bucket.
type HistogramPoint struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a point-in-time copy of a registry, sorted by instrument name
// within each section, so its renderings are deterministic.
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugePoint{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		p := HistogramPoint{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.n.Load(),
			Sum:    math.Float64frombits(h.sumBits.Load()),
		}
		for i := range h.counts {
			p.Counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, p)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Counter returns the snapshotted value of the named counter, or 0 when the
// snapshot has no such counter.
func (s Snapshot) Counter(name string) float64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// fmtFloat renders a metric value with the shortest exact representation,
// so snapshots round-trip and stay byte-stable.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Text renders the snapshot as a plain exposition, one instrument per line,
// sorted by section (counter, gauge, histogram) and name.
func (s Snapshot) Text() string {
	var b strings.Builder
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "counter %s %s\n", c.Name, fmtFloat(c.Value))
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "gauge %s %s\n", g.Name, fmtFloat(g.Value))
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "histogram %s", h.Name)
		for i, bound := range h.Bounds {
			fmt.Fprintf(&b, " le=%s:%d", fmtFloat(bound), h.Counts[i])
		}
		fmt.Fprintf(&b, " le=+Inf:%d count=%d sum=%s\n", h.Counts[len(h.Counts)-1], h.Count, fmtFloat(h.Sum))
	}
	return b.String()
}

// JSON renders the snapshot as indented JSON. Sections are sorted slices,
// so the bytes are deterministic.
func (s Snapshot) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("obs: marshal snapshot: %w", err)
	}
	return append(data, '\n'), nil
}
