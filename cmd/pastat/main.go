// Command pastat analyzes a paserve wide-event log (one JSON object per
// request, as written by paserve -events) and reports where request latency
// goes: per-target percentiles with the stage that dominates each, the
// cache/coalescing efficiency of the campaign store, and the status-class
// breakdown.
//
// Usage:
//
//	pastat -events events.jsonl [-slo p99=500ms,err_rate=0.01]
//	       [-strict] [-json] [-validate-trace serve-trace.json]
//
// The -slo flag takes a comma-separated list of objectives over the whole
// log: p50, p99 and max (Go durations) bound the corresponding overall
// latency quantile; err_rate (a fraction) bounds 5xx responses per request.
// A violated objective is a finding.
//
// -strict adds the telemetry-integrity checks as findings: duplicate
// request IDs, any 5xx response, and any event whose stage breakdown does
// not sum to its measured latency within max(1%, 100µs) — the wide-event
// contract that lets the breakdown be trusted.
//
// -validate-trace parses the named file as Chrome trace-event JSON and
// checks the invariants Perfetto relies on (the same validation paserve
// runs before writing it).
//
// Exit status: 0 clean, 1 findings (SLO burn or strict violations), 2
// usage or input errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pasp/internal/obs"
)

// slo is the parsed -slo flag: zero-valued fields are unchecked.
type slo struct {
	p50, p99, max time.Duration
	errRate       float64
	hasErrRate    bool
}

// parseSLO parses "p99=500ms,err_rate=0.01".
func parseSLO(s string) (slo, error) {
	var out slo
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return out, fmt.Errorf("slo term %q is not key=value", part)
		}
		switch key {
		case "p50", "p99", "max":
			d, err := time.ParseDuration(val)
			if err != nil {
				return out, fmt.Errorf("slo %s: %w", key, err)
			}
			if d <= 0 {
				return out, fmt.Errorf("slo %s must be positive (got %s)", key, d)
			}
			switch key {
			case "p50":
				out.p50 = d
			case "p99":
				out.p99 = d
			default:
				out.max = d
			}
		case "err_rate":
			r, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return out, fmt.Errorf("slo err_rate: %w", err)
			}
			if r < 0 || r > 1 {
				return out, fmt.Errorf("slo err_rate must be in [0,1] (got %g)", r)
			}
			out.errRate, out.hasErrRate = r, true
		default:
			return out, fmt.Errorf("unknown slo key %q (have p50, p99, max, err_rate)", key)
		}
	}
	return out, nil
}

// quantileEvent returns the event at the q-quantile of events sorted by
// TotalS (the nearest-rank convention the load harness also uses).
func quantileEvent(sorted []*obs.Event, q float64) *obs.Event {
	if len(sorted) == 0 {
		return nil
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// TargetReport is one endpoint's latency breakdown.
type TargetReport struct {
	Target string  `json:"target"`
	Events int     `json:"events"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	// P50Stage/P99Stage name the dominant stage of the event at that
	// quantile — which pipeline stage to look at first when that percentile
	// is slow — with the stage's fraction of the event's latency.
	P50Stage     string  `json:"p50_stage"`
	P50StageFrac float64 `json:"p50_stage_frac"`
	P99Stage     string  `json:"p99_stage"`
	P99StageFrac float64 `json:"p99_stage_frac"`
}

// Report is pastat's full analysis of one event log.
type Report struct {
	Events    int            `json:"events"`
	Status    map[string]int `json:"status"`
	Rate5xx   float64        `json:"rate_5xx"`
	P50Ms     float64        `json:"p50_ms"`
	P99Ms     float64        `json:"p99_ms"`
	MaxMs     float64        `json:"max_ms"`
	CacheHits int            `json:"cache_hits"`
	CacheMiss int            `json:"cache_misses"`
	Coalesced int            `json:"cache_coalesced"`
	// ReqPerSim is the coalescing efficiency: store-touching requests per
	// simulation actually run. 1.0 means no sharing; k means each sweep
	// served k requests.
	ReqPerSim float64 `json:"requests_per_simulation"`
	// StageShare is each stage's fraction of summed latency across all
	// events, in obs.StageNames order.
	StageShare []float64      `json:"stage_share"`
	Targets    []TargetReport `json:"targets"`
	// DuplicateIDs counts request IDs appearing on more than one event;
	// MaxStageGap is the worst |TotalS − StageSum| over the log, in
	// seconds. Both are strict-mode findings when nonzero/over-budget.
	DuplicateIDs int     `json:"duplicate_ids"`
	MaxStageGap  float64 `json:"max_stage_gap_s"`
}

// analyze builds the report from the parsed events.
func analyze(events []obs.Event) *Report {
	rep := &Report{Status: map[string]int{}, StageShare: make([]float64, len(obs.StageNames))}
	rep.Events = len(events)
	byTarget := map[string][]*obs.Event{}
	seen := map[string]int{}
	var all []*obs.Event
	totalLatency := 0.0
	n5xx := 0
	for i := range events {
		e := &events[i]
		all = append(all, e)
		byTarget[e.Target] = append(byTarget[e.Target], e)
		rep.Status[strconv.Itoa(e.Status/100)+"xx"]++
		if e.Status >= 500 {
			n5xx++
		}
		switch e.Cache {
		case "hit":
			rep.CacheHits++
		case "miss":
			rep.CacheMiss++
		case "coalesced":
			rep.Coalesced++
		}
		seen[e.ID]++
		if seen[e.ID] == 2 {
			rep.DuplicateIDs++
		}
		totalLatency += e.TotalS
		if gap := math.Abs(e.TotalS - e.StageSum()); gap > rep.MaxStageGap {
			rep.MaxStageGap = gap
		}
		for j, v := range e.Stages() {
			rep.StageShare[j] += v
		}
	}
	if rep.Events > 0 {
		rep.Rate5xx = float64(n5xx) / float64(rep.Events)
	}
	if totalLatency > 0 {
		for j := range rep.StageShare {
			rep.StageShare[j] /= totalLatency
		}
	}
	if rep.CacheMiss > 0 {
		rep.ReqPerSim = float64(rep.CacheMiss+rep.Coalesced) / float64(rep.CacheMiss)
	}
	byLatency := func(evs []*obs.Event) {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].TotalS < evs[j].TotalS })
	}
	byLatency(all)
	if e := quantileEvent(all, 0.50); e != nil {
		rep.P50Ms = e.TotalS * 1e3
	}
	if e := quantileEvent(all, 0.99); e != nil {
		rep.P99Ms = e.TotalS * 1e3
	}
	if e := quantileEvent(all, 1.00); e != nil {
		rep.MaxMs = e.TotalS * 1e3
	}
	names := make([]string, 0, len(byTarget))
	for name := range byTarget {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		evs := byTarget[name]
		byLatency(evs)
		tr := TargetReport{Target: name, Events: len(evs)}
		if e := quantileEvent(evs, 0.50); e != nil {
			tr.P50Ms = e.TotalS * 1e3
			tr.P50Stage, tr.P50StageFrac = e.Dominant()
		}
		if e := quantileEvent(evs, 0.99); e != nil {
			tr.P99Ms = e.TotalS * 1e3
			tr.P99Stage, tr.P99StageFrac = e.Dominant()
		}
		if e := quantileEvent(evs, 1.00); e != nil {
			tr.MaxMs = e.TotalS * 1e3
		}
		rep.Targets = append(rep.Targets, tr)
	}
	return rep
}

// text renders the report as the human summary.
func (rep *Report) text(w io.Writer) {
	fmt.Fprintf(w, "events %d", rep.Events)
	classes := make([]string, 0, len(rep.Status))
	for c := range rep.Status {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(w, " %s=%d", c, rep.Status[c])
	}
	fmt.Fprintf(w, " err_rate=%.4f\n", rep.Rate5xx)
	fmt.Fprintf(w, "latency p50 %.3fms p99 %.3fms max %.3fms\n", rep.P50Ms, rep.P99Ms, rep.MaxMs)
	if rep.CacheHits+rep.CacheMiss+rep.Coalesced > 0 {
		fmt.Fprintf(w, "store: %d hits, %d misses, %d coalesced", rep.CacheHits, rep.CacheMiss, rep.Coalesced)
		if rep.ReqPerSim > 0 {
			fmt.Fprintf(w, " (%.2f requests per simulation)", rep.ReqPerSim)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "stage share:")
	for j, name := range obs.StageNames {
		fmt.Fprintf(w, " %s=%.1f%%", name, rep.StageShare[j]*100)
	}
	fmt.Fprintln(w)
	for _, tr := range rep.Targets {
		fmt.Fprintf(w, "target %s: %d events, p50 %.3fms (dominant %s %.0f%%), p99 %.3fms (dominant %s %.0f%%), max %.3fms\n",
			tr.Target, tr.Events,
			tr.P50Ms, tr.P50Stage, tr.P50StageFrac*100,
			tr.P99Ms, tr.P99Stage, tr.P99StageFrac*100,
			tr.MaxMs)
	}
	if rep.DuplicateIDs > 0 {
		fmt.Fprintf(w, "duplicate request ids: %d\n", rep.DuplicateIDs)
	}
}

// stageGapBudget is the strict-mode tolerance on |TotalS − StageSum| for an
// event: 1% of the measured latency, floored at 100µs so microsecond-scale
// requests are not held to nanosecond bookkeeping.
func stageGapBudget(total float64) float64 {
	b := 0.01 * total
	if b < 100e-6 {
		b = 100e-6
	}
	return b
}

// findings evaluates the SLOs and (in strict mode) the integrity checks,
// printing one line per violation. The returned count drives the exit code.
func findings(rep *Report, events []obs.Event, obj slo, strict bool, w io.Writer) int {
	n := 0
	check := func(name string, limitMs, gotMs float64) {
		if limitMs > 0 && gotMs > limitMs {
			n++
			fmt.Fprintf(w, "SLO BURN: %s %.3fms over objective %.3fms\n", name, gotMs, limitMs)
		}
	}
	check("p50", float64(obj.p50)/float64(time.Millisecond), rep.P50Ms)
	check("p99", float64(obj.p99)/float64(time.Millisecond), rep.P99Ms)
	check("max", float64(obj.max)/float64(time.Millisecond), rep.MaxMs)
	if obj.hasErrRate && rep.Rate5xx > obj.errRate {
		n++
		fmt.Fprintf(w, "SLO BURN: err_rate %.4f over objective %.4f\n", rep.Rate5xx, obj.errRate)
	}
	if !strict {
		return n
	}
	if rep.DuplicateIDs > 0 {
		n++
		fmt.Fprintf(w, "STRICT: %d request id(s) appear on more than one event\n", rep.DuplicateIDs)
	}
	for i := range events {
		e := &events[i]
		if e.Status >= 500 {
			n++
			fmt.Fprintf(w, "STRICT: request %s (%s) answered %d: %s\n", e.ID, e.Target, e.Status, e.Err)
		}
		if gap := math.Abs(e.TotalS - e.StageSum()); gap > stageGapBudget(e.TotalS) {
			n++
			fmt.Fprintf(w, "STRICT: request %s stage sum %.6fs differs from total %.6fs by %.6fs\n",
				e.ID, e.StageSum(), e.TotalS, gap)
		}
	}
	return n
}

// run executes the analyzer; the returned count is the number of findings.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("pastat", flag.ContinueOnError)
	eventsFile := fs.String("events", "", "wide-event log to analyze (as written by paserve -events)")
	sloFlag := fs.String("slo", "", "objectives: p50/p99/max (durations) and err_rate (fraction), comma-separated")
	strict := fs.Bool("strict", false, "fail on duplicate ids, 5xx responses and stage sums that do not close")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of text")
	validateTrace := fs.String("validate-trace", "", "also validate this Chrome trace-event file")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if *eventsFile == "" && *validateTrace == "" {
		return 0, fmt.Errorf("nothing to do (pass -events and/or -validate-trace)")
	}
	obj, err := parseSLO(*sloFlag)
	if err != nil {
		return 0, err
	}

	n := 0
	if *validateTrace != "" {
		data, err := os.ReadFile(*validateTrace)
		if err != nil {
			return 0, err
		}
		count, err := obs.ValidateChromeTrace(data)
		if err != nil {
			n++
			fmt.Fprintf(stdout, "TRACE INVALID: %s: %v\n", *validateTrace, err)
		} else {
			fmt.Fprintf(stdout, "trace %s: %d event(s), valid\n", *validateTrace, count)
		}
	}
	if *eventsFile == "" {
		return n, nil
	}

	f, err := os.Open(*eventsFile)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	events, err := obs.ParseEvents(f)
	if err != nil {
		return 0, err
	}
	if len(events) == 0 {
		return 0, fmt.Errorf("%s has no events", *eventsFile)
	}

	rep := analyze(events)
	if *jsonOut {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return 0, err
		}
		stdout.Write(append(data, '\n'))
	} else {
		rep.text(stdout)
	}
	n += findings(rep, events, obj, *strict, stdout)
	return n, nil
}

func main() {
	n, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(os.Stderr, "pastat: %v\n", err)
		}
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}
