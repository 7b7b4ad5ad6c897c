package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"pasp/internal/trace"
	"pasp/internal/units"
)

// kindCname maps each trace.Kind to a Chrome reserved color name, indexed
// by the enum so exporters never switch on magic strings. Perfetto and
// chrome://tracing both honor these: green for compute, grey-blue for
// communication waits, orange/red for injected faults and retries.
var kindCname = [trace.NumKinds]string{
	trace.Compute: "thread_state_running",
	trace.Comm:    "thread_state_iowait",
	trace.Fault:   "bad",
	trace.Retry:   "terrible",
}

// jstr renders s as a JSON string literal.
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// A Go string always marshals; keep the signature alloc-free for
		// callers rather than plumbing an impossible error.
		return `""`
	}
	return string(b)
}

// micros renders a virtual-time quantity in microseconds with fixed
// nanosecond resolution, the precision of the simulator's virtual clock
// printouts (TimelineCSV uses %.9f seconds — the same granularity).
func micros(sec float64) string {
	return strconv.FormatFloat(units.Seconds(sec).Micros(), 'f', 3, 64)
}

// ChromeTrace renders the merged trace log as Chrome trace-event JSON —
// the format Perfetto and chrome://tracing load directly. One track (tid)
// per rank, one complete ("X") event per trace interval colored by kind,
// and one instant ("i") event at the start of every injected fault or
// retry so chaos shows up as markers even when the interval is too thin to
// see. The bytes are built manually in a fixed order, so identical logs
// produce identical files.
func ChromeTrace(l *trace.Log, processName string) []byte {
	events := l.Events()
	ranks := map[int]bool{}
	for _, e := range events {
		ranks[e.Rank] = true
	}
	order := make([]int, 0, len(ranks))
	for r := range ranks {
		order = append(order, r)
	}
	sort.Ints(order)

	var b bytes.Buffer
	b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	fmt.Fprintf(&b, `{"ph":"M","pid":0,"name":"process_name","args":{"name":%s}}`, jstr(processName))
	for _, r := range order {
		fmt.Fprintf(&b, ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"rank %d\"}}", r, r)
		fmt.Fprintf(&b, ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":%d}}", r, r)
	}
	for _, e := range events {
		cname := ""
		if e.Kind >= 0 && e.Kind < trace.NumKinds {
			cname = kindCname[e.Kind]
		}
		fmt.Fprintf(&b, ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%s,\"cat\":%s,\"cname\":%s,\"args\":{\"watts\":%.2f}}",
			e.Rank, micros(e.Start), micros(e.End-e.Start), jstr(e.Phase), jstr(e.Kind.String()), jstr(cname), e.Watts)
		if e.Kind == trace.Fault || e.Kind == trace.Retry {
			fmt.Fprintf(&b, ",\n{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"name\":%s,\"s\":\"t\"}",
				e.Rank, micros(e.Start), jstr(e.Kind.String()))
		}
	}
	b.WriteString("\n]}\n")
	return b.Bytes()
}

// SpansChromeTrace renders recorded spans (campaign, request and benchmark
// spans) as trace-event JSON. A span with Rank ≥ 0 lands on track Rank+1;
// the rest land on track 0, so nesting shows as stacked slices.
func SpansChromeTrace(spans []Span, processName string) []byte {
	var b bytes.Buffer
	b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	fmt.Fprintf(&b, `{"ph":"M","pid":0,"name":"process_name","args":{"name":%s}}`, jstr(processName))
	for _, s := range spans {
		tid := 0
		if s.Rank >= 0 {
			tid = s.Rank + 1
		}
		fmt.Fprintf(&b, ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%s,\"cat\":\"span\",\"args\":{",
			tid, micros(s.Start), micros(s.End-s.Start), jstr(s.Name))
		for i, a := range s.Attrs {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "%s:%s", jstr(a.Key), jstr(a.Value))
		}
		b.WriteString("}}")
	}
	b.WriteString("\n]}\n")
	return b.Bytes()
}

// NestSpans rebases spans recorded on a different clock than their parent
// so the exported X events nest visually. The serving layer's request
// spans run on the server's wall clock while the campaign spans the store
// records run on the simulator's virtual clock (starting at zero); a
// campaign span exported as-is would render at the origin instead of
// inside the request that triggered it. NestSpans shifts any span that
// starts before its parent to the parent's (already rebased) start,
// propagating the shift to its own descendants, and returns a new slice —
// the input is not modified. Parents must precede children in the slice,
// which is the order Recorder.Spans returns.
func NestSpans(spans []Span) []Span {
	out := append([]Span(nil), spans...)
	idx := make(map[int]int, len(out))
	for i, s := range out {
		idx[s.ID] = i
	}
	shift := make([]float64, len(out))
	for i := range out {
		s := &out[i]
		if s.Parent < 0 {
			continue
		}
		p, ok := idx[s.Parent]
		if !ok || p >= i {
			continue
		}
		shift[i] = shift[p]
		if s.Start+shift[i] < out[p].Start+shift[p] {
			shift[i] = out[p].Start + shift[p] - s.Start
		}
	}
	for i := range out {
		out[i].Start += shift[i]
		out[i].End += shift[i]
	}
	return out
}

// chromeEvent is the schema subset ValidateChromeTrace checks.
type chromeEvent struct {
	Ph   string          `json:"ph"`
	Pid  *int            `json:"pid"`
	Tid  *int            `json:"tid"`
	Ts   *float64        `json:"ts"`
	Dur  *float64        `json:"dur"`
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	S    string          `json:"s"`
	Args json.RawMessage `json:"args"`
}

// chromeFile is the top-level trace-event container.
type chromeFile struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// metadataNames are the "M" event names the exporters emit and the
// trace-event format defines for process/thread labeling.
var metadataNames = map[string]bool{
	"process_name":       true,
	"process_sort_index": true,
	"thread_name":        true,
	"thread_sort_index":  true,
}

// ValidateChromeTrace parses data as trace-event JSON and checks the
// invariants Perfetto relies on: every event is a known phase type, "X"
// events carry a name, timestamp and non-negative duration, instants are
// thread-scoped, metadata names are from the defined set. It returns the
// number of events, so smoke tests can assert non-emptiness.
func ValidateChromeTrace(data []byte) (int, error) {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("obs: trace JSON does not parse: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return 0, fmt.Errorf("obs: trace has no events")
	}
	for i, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			if !metadataNames[e.Name] {
				return 0, fmt.Errorf("obs: event %d: unknown metadata name %q", i, e.Name)
			}
		case "X":
			if e.Name == "" {
				return 0, fmt.Errorf("obs: event %d: complete event without a name", i)
			}
			if e.Ts == nil || e.Dur == nil {
				return 0, fmt.Errorf("obs: event %d: complete event missing ts/dur", i)
			}
			if *e.Dur < 0 {
				return 0, fmt.Errorf("obs: event %d: negative duration %g", i, *e.Dur)
			}
			if e.Tid == nil {
				return 0, fmt.Errorf("obs: event %d: complete event missing tid", i)
			}
		case "i":
			if e.S != "t" {
				return 0, fmt.Errorf("obs: event %d: instant with scope %q, want thread", i, e.S)
			}
			if e.Ts == nil || e.Tid == nil {
				return 0, fmt.Errorf("obs: event %d: instant missing ts/tid", i)
			}
		default:
			return 0, fmt.Errorf("obs: event %d: unknown phase type %q", i, e.Ph)
		}
	}
	return len(f.TraceEvents), nil
}
