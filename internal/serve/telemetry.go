package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"pasp/internal/obs"
	"pasp/internal/units"
)

// Per-request telemetry: every request gets an ID (inbound X-Request-ID or
// server-generated) that travels by context through the store into the
// sweep; when the server is built with an event log or a trace recorder,
// each request additionally carries a reqTrack that accumulates the
// stage-by-stage timing breakdown the wide event reports. With both
// disabled the per-request cost is the ID itself — no track allocation, no
// spans — which TestServeDisabledTelemetryAllocs pins.

// stageKind indexes the wide event's stage fields in pipeline order.
type stageKind int

const (
	stageDecode stageKind = iota
	stagePeek
	stageAdmission
	stageCoalesce
	stageSweep
	stageFit
	stageEncode
)

// requestTracks is how many exporter tracks concurrent request spans are
// spread across, so overlapping requests render side by side in Perfetto
// instead of stacking into false nesting.
const requestTracks = 8

// reqTrack accumulates one request's wide event while the handler runs. It
// is confined to the handler goroutine; nil methods no-op so handler code
// stays unconditional.
type reqTrack struct {
	ev     obs.Event
	start  time.Time
	last   time.Time
	spanID int
}

// stage returns the event field backing kind.
func (t *reqTrack) stage(kind stageKind) *float64 {
	switch kind {
	case stageDecode:
		return &t.ev.DecodeS
	case stagePeek:
		return &t.ev.PeekS
	case stageAdmission:
		return &t.ev.AdmissionS
	case stageCoalesce:
		return &t.ev.CoalesceS
	case stageSweep:
		return &t.ev.SweepS
	case stageFit:
		return &t.ev.FitS
	default:
		return &t.ev.EncodeS
	}
}

// lap charges the time since the previous lap to kind and restarts the
// stopwatch — the consecutive-stamp discipline that makes the stages tile
// the request.
func (t *reqTrack) lap(kind stageKind) {
	if t == nil {
		return
	}
	now := time.Now() //palint:ignore detsource -- stage timing is host time, not virtual time
	*t.stage(kind) += now.Sub(t.last).Seconds()
	t.last = now
}

// addStage charges an externally measured duration to kind and advances the
// stopwatch by exactly that amount; any skew lands in the next lap (and
// ultimately OtherS) rather than being counted twice.
func (t *reqTrack) addStage(kind stageKind, d time.Duration) {
	if t == nil {
		return
	}
	*t.stage(kind) += d.Seconds()
	t.last = t.last.Add(d)
}

// setCache records the campaign disposition and, for coalesced requests,
// the leader whose simulation was shared.
func (t *reqTrack) setCache(disposition, leader string) {
	if t == nil {
		return
	}
	t.ev.Cache = disposition
	t.ev.Leader = leader
}

// setConfig records the asked-for kernel configuration.
func (t *reqTrack) setConfig(kernel string, n int, mhz float64) {
	if t == nil {
		return
	}
	t.ev.Kernel, t.ev.N, t.ev.MHz = kernel, n, mhz
}

// trackKey is the context key carrying the request's reqTrack.
type trackKey struct{}

// withTrack returns a context carrying t.
func withTrack(ctx context.Context, t *reqTrack) context.Context {
	return context.WithValue(ctx, trackKey{}, t)
}

// trackFrom returns the context's reqTrack, or nil when telemetry is off.
func trackFrom(ctx context.Context) *reqTrack {
	t, _ := ctx.Value(trackKey{}).(*reqTrack)
	return t
}

// requestIDHeader carries the request ID both ways, in the canonical form
// net/http writes any spelling of it in, so setting and reading it never
// builds the canonical key again.
const requestIDHeader = "X-Request-Id"

// hexID renders v as the 16-hex-digit request ID format.
func hexID(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// validRequestID accepts inbound IDs that are short, non-empty and visible
// ASCII — anything else is replaced, so logs and headers stay clean no
// matter what the client sends.
func validRequestID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= ' ' || c >= 0x7f {
			return false
		}
	}
	return true
}

// requestID returns the request's ID: the inbound X-Request-ID when it is
// well-formed, else a fresh splitmix64-derived one. IDs from the counter
// stream are unique per server and cheap (no entropy syscall per request).
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get(requestIDHeader); validRequestID(id) {
		return id
	}
	return hexID(splitmix64(s.idSeed ^ s.idSeq.Add(1)))
}

// flightBuckets is the bucket layout for the simulation flight-duration
// histogram backing the adaptive Retry-After hint. Finer than
// obs.SecondsBuckets around human-scale waits, because the hint is the
// ceiling of a bucket bound.
var flightBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10, 30, 60, 120, 300}

// retryAfterFallback is the 429 Retry-After value, in seconds, until the
// server has led a flight to measure.
const retryAfterFallback = "1"

// retryAfterHint derives the 429 Retry-After value from the median of
// recently led flight durations — how long a slot actually stays busy —
// falling back to retryAfterFallback until the server has led a flight.
func (s *Server) retryAfterHint() string {
	q, ok := s.flights.Quantile(0.5)
	if !ok || math.IsInf(q, 1) {
		return retryAfterFallback
	}
	sec := int(math.Ceil(q))
	if sec < 1 {
		sec = 1
	}
	if sec > 600 {
		sec = 600
	}
	return strconv.Itoa(sec)
}

// finishRequest completes the request's telemetry once the handler has
// returned: the wide event's outcome and book-closing OtherS, and the end
// of the request span. No-op when telemetry is disabled (t is nil).
func (s *Server) finishRequest(t *reqTrack, sw *statusWriter, elapsed time.Duration) {
	if t == nil {
		return
	}
	t.ev.Status = sw.code
	if t.ev.Status == 0 {
		// The handler wrote neither header nor body (an empty 200).
		t.ev.Status = http.StatusOK
	}
	t.ev.Err = sw.errMsg
	t.ev.TotalS = elapsed.Seconds()
	if rest := t.ev.TotalS - t.ev.StageSum(); rest > 0 {
		t.ev.OtherS = rest
	}
	s.events.Record(t.ev)
	if s.trace != nil && t.spanID >= 0 {
		s.trace.EndSpan(t.spanID, t.start.Sub(s.epoch).Seconds()+t.ev.TotalS)
		attrs := []obs.Attr{obs.F("status", float64(t.ev.Status))}
		if t.ev.Cache != "" {
			attrs = append(attrs, obs.A("cache", t.ev.Cache))
		}
		s.trace.AddSpanAttrs(t.spanID, attrs...)
	}
}

// handleDebugRequests answers GET /debug/requests: the last K wide events
// from the ring, newest last — as human-readable text, or the canonical
// JSON lines with ?format=json. 404 when the server runs without an event
// log, mirroring how /metrics treats a missing registry section: absent,
// not empty.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if s.events == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("serve: the server runs without an event log (start with -events or -ring)"))
		return
	}
	events := s.events.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		buf := make([]byte, 0, 256*len(events)+2)
		buf = append(buf, '[')
		for i := range events {
			if i > 0 {
				buf = append(buf, ',', '\n')
			}
			buf = events[i].AppendJSON(buf)
		}
		buf = append(buf, ']', '\n')
		w.Write(buf)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "%d events retained (%d total)\n", len(events), s.events.Total())
	for i := range events {
		e := &events[i]
		stage, frac := e.Dominant()
		fmt.Fprintf(w, "seq=%d id=%s target=%s status=%d", e.Seq, e.ID, e.Target, e.Status)
		if e.Cache != "" {
			fmt.Fprintf(w, " cache=%s", e.Cache)
		}
		if e.Leader != "" {
			fmt.Fprintf(w, " leader=%s", e.Leader)
		}
		fmt.Fprintf(w, " total=%.3fms dominant=%s(%.0f%%)", e.TotalS*1e3, stage, frac*100)
		if e.Err != "" {
			fmt.Fprintf(w, " err=%q", e.Err)
		}
		fmt.Fprintln(w)
	}
}

// runtimeGauges refreshes the Go runtime section of the registry — the
// live-introspection counterpart to the wide events, scraped on every
// /metrics hit rather than sampled on a timer.
func (s *Server) runtimeGauges() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.Gauge("go.goroutines").Set(float64(runtime.NumGoroutine()))
	s.reg.Gauge("go.heap_alloc_bytes").Set(float64(ms.HeapAlloc))
	s.reg.Gauge("go.heap_objects").Set(float64(ms.HeapObjects))
	s.reg.Gauge("go.gc_cycles").Set(float64(ms.NumGC))
	s.reg.Gauge("go.gc_pause_total_seconds").Set(float64(units.NanosToSec(units.Nanos(ms.PauseTotalNs))))
	s.reg.Gauge("serve.uptime_seconds").Set(time.Since(s.epoch).Seconds()) //palint:ignore detsource -- uptime is host time by definition
}
