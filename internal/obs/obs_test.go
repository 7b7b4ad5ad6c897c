package obs

import (
	"math"
	"strings"
	"sync"
	"testing"

	"pasp/internal/power"
	"pasp/internal/trace"
	"pasp/internal/units"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 { //palint:ignore floateq -- exact sums of exactly-representable values
		t.Errorf("counter = %g, want 3.5", got)
	}
	if r.Counter("msgs") != c {
		t.Error("second Counter lookup returned a different instrument")
	}
	g := r.Gauge("makespan")
	g.Set(12.25)
	if got := g.Value(); got != 12.25 { //palint:ignore floateq -- exact round-trip of a stored value
		t.Errorf("gauge = %g, want 12.25", got)
	}
}

func TestCounterConcurrentAdds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 { //palint:ignore floateq -- integer counts are exact in float64
		t.Errorf("concurrent counter = %g, want 8000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bytes", []float64{10, 100})
	h.Observe(5)    // ≤10
	h.Observe(10)   // ≤10 (boundary lands in its bucket)
	h.Observe(50)   // ≤100
	h.Observe(1000) // overflow
	h.ObserveN(7, 2)
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms, want 1", len(s.Histograms))
	}
	p := s.Histograms[0]
	want := []int64{4, 1, 1}
	for i, w := range want {
		if p.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, p.Counts[i], w)
		}
	}
	if p.Count != 6 {
		t.Errorf("count = %d, want 6", p.Count)
	}
	if p.Sum != 5+10+50+1000+14 { //palint:ignore floateq -- exact sums of exactly-representable values
		t.Errorf("sum = %g", p.Sum)
	}
}

func TestSnapshotDeterministicText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("z").Set(3)
	r.Histogram("h", []float64{1}).Observe(0.5)
	text := r.Snapshot().Text()
	want := "counter a 1\ncounter b 2\ngauge z 3\nhistogram h le=1:1 le=+Inf:0 count=1 sum=0.5\n"
	if text != want {
		t.Errorf("snapshot text:\n%s\nwant:\n%s", text, want)
	}
	if again := r.Snapshot().Text(); again != text {
		t.Error("repeated snapshots differ")
	}
}

// TestSnapshotDelta: a snapshot is a copy, so two snapshots subtract to the
// activity between them; a counter absent from the first counts from zero.
func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(2)
	r.Histogram("h", []float64{1}).Observe(0.5)
	before := r.Snapshot()
	r.Counter("hits").Add(3)
	r.Counter("misses").Inc()
	r.Histogram("h", []float64{1}).Observe(2)
	after := r.Snapshot()
	if got := after.Counter("hits") - before.Counter("hits"); got != 3 { //palint:ignore floateq -- exact integer delta
		t.Errorf("hits delta = %g, want 3", got)
	}
	if got := after.Counter("misses") - before.Counter("misses"); got != 1 { //palint:ignore floateq -- exact integer delta
		t.Errorf("misses delta = %g, want 1", got)
	}
	h0, h1 := before.Histograms[0], after.Histograms[0]
	if h1.Count-h0.Count != 1 || h1.Counts[1]-h0.Counts[1] != 1 {
		t.Errorf("histogram %+v after %+v, want one more overflow observation", h1, h0)
	}
}

func TestRecorderSpanHierarchy(t *testing.T) {
	r := NewRecorder()
	camp := r.StartSpan(-1, "campaign:ft", 0, A("kernel", "ft"))
	child := r.StartSpanAt(camp, "campaign:cg", 1, 0.5)
	r.EndSpan(child, 2)
	r.EndSpan(camp, 3)
	r.AddSpanAttrs(camp, F("cells", 4))

	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	if spans[0].Name != "campaign:ft" || spans[0].Parent != -1 || spans[0].End != 3 { //palint:ignore floateq -- exact virtual-time bookkeeping
		t.Errorf("span 0 = %+v, want root campaign ending at 3", spans[0])
	}
	if len(spans[0].Attrs) != 2 || spans[0].Attrs[1].Key != "cells" {
		t.Errorf("campaign attrs = %+v, want kernel and cells", spans[0].Attrs)
	}
	if spans[1].Name != "campaign:cg" || spans[1].Parent != spans[0].ID || spans[1].Rank != 1 {
		t.Errorf("span 1 = %+v, want a child of span 0 on track 1", spans[1])
	}
	for i, s := range spans {
		if s.ID != i {
			t.Errorf("span %d carries ID %d; IDs must match returned order", i, s.ID)
		}
	}
	spans[0].Name = "mutated"
	if r.Spans()[0].Name != "campaign:ft" {
		t.Error("Spans returned the recorder's own storage, not a copy")
	}
}

func TestGlobalRecorderInstall(t *testing.T) {
	r := NewRecorder()
	prev := SetGlobal(r)
	defer SetGlobal(prev)
	if Global() != r {
		t.Error("Global did not return the installed recorder")
	}
	if SetGlobal(nil) != r {
		t.Error("SetGlobal did not return the previous recorder")
	}
	if Global() != nil {
		t.Error("Global not nil after removal")
	}
	SetGlobal(prev)
}

// syntheticLog builds a two-rank log with every kind represented.
func syntheticLog() *trace.Log {
	l := &trace.Log{}
	l.Append(trace.Event{Rank: 0, Phase: "init", Kind: trace.Compute, Start: 0, End: 1, Watts: 40})
	l.Append(trace.Event{Rank: 0, Phase: "exchange", Kind: trace.Comm, Start: 1, End: 2, Watts: 40})
	l.Append(trace.Event{Rank: 0, Phase: "exchange", Kind: trace.Fault, Start: 2, End: 2.25, Watts: 40})
	l.Append(trace.Event{Rank: 1, Phase: "init", Kind: trace.Compute, Start: 0, End: 1.5, Watts: 40})
	l.Append(trace.Event{Rank: 1, Phase: "exchange", Kind: trace.Retry, Start: 1.5, End: 1.75, Watts: 30})
	return l
}

func TestChromeTraceValidatesAndIsDeterministic(t *testing.T) {
	l := syntheticLog()
	data := ChromeTrace(l, "pasp")
	n, err := ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("exported trace does not validate: %v\n%s", err, data)
	}
	// 1 process_name + 2×(thread_name+sort) + 5 X + 2 instants.
	if n != 12 {
		t.Errorf("trace has %d events, want 12", n)
	}
	if string(ChromeTrace(l, "pasp")) != string(data) {
		t.Error("repeated export differs byte-wise")
	}
	for _, want := range []string{`"rank 0"`, `"rank 1"`, `"thread_state_running"`, `"thread_state_iowait"`, `"bad"`, `"terrible"`, `"ph":"i"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace missing %s", want)
		}
	}
}

func TestSpansChromeTraceValidates(t *testing.T) {
	r := NewRecorder()
	id := r.StartSpan(-1, "campaign:ft", 0, F("cells", 4))
	r.EndSpan(id, 10)
	data := SpansChromeTrace(r.Spans(), "pachaos")
	if _, err := ValidateChromeTrace(data); err != nil {
		t.Fatalf("span trace does not validate: %v\n%s", err, data)
	}
}

func TestValidateChromeTraceRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      `{`,
		"empty":         `{"traceEvents":[]}`,
		"unknown phase": `{"traceEvents":[{"ph":"Q","name":"x"}]}`,
		"nameless X":    `{"traceEvents":[{"ph":"X","ts":0,"dur":1,"tid":0}]}`,
		"missing dur":   `{"traceEvents":[{"ph":"X","name":"x","ts":0,"tid":0}]}`,
		"negative dur":  `{"traceEvents":[{"ph":"X","name":"x","ts":0,"dur":-1,"tid":0}]}`,
		"process scope": `{"traceEvents":[{"ph":"i","name":"x","ts":0,"tid":0,"s":"p"}]}`,
		"bad meta name": `{"traceEvents":[{"ph":"M","name":"bogus"}]}`,
	}
	for name, data := range cases {
		if _, err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
}

func TestAttributeEnergySums(t *testing.T) {
	l := syntheticLog()
	prof := power.PentiumM()
	st := prof.TopState()
	makespan := 2.25
	rankEnds := []float64{2.25, 1.75}
	rep := AttributeEnergy(l, prof, st, makespan, rankEnds)

	// Row joules = Σ watts×duration; rank 1 also gets an idle tail.
	wantTotal := 40*1.0 + 40*1.0 + 40*0.25 + 40*1.5 + 30*0.25 +
		float64(prof.NodePower(st, 0).Energy(units.Seconds(makespan-1.75)))
	if math.Abs(rep.TotalJoules-wantTotal) > 1e-9*wantTotal {
		t.Errorf("TotalJoules = %.12g, want %.12g", rep.TotalJoules, wantTotal)
	}
	// The total is the sum of the rows in their printed order, bit for bit.
	var rowSum float64
	for _, r := range rep.Rows {
		rowSum += r.Joules
	}
	if math.Float64bits(rowSum) != math.Float64bits(rep.TotalJoules) {
		t.Errorf("rows sum to %.17g, header says %.17g", rowSum, rep.TotalJoules)
	}
	// Rank 0 finished at the makespan: no idle row. Rank 1 idles.
	for _, r := range rep.Rows {
		if r.Rank == 0 && r.Phase == IdleTailPhase {
			t.Error("rank 0 has an idle tail despite finishing last")
		}
	}
	found := false
	for _, r := range rep.Rows {
		if r.Rank == 1 && r.Phase == IdleTailPhase {
			found = true
			if math.Abs(r.Seconds-0.5) > 1e-12 {
				t.Errorf("rank 1 idle tail = %g s, want 0.5", r.Seconds)
			}
		}
	}
	if !found {
		t.Error("rank 1 idle tail missing")
	}
	// Deterministic row order: (rank, phase).
	for i := 1; i < len(rep.Rows); i++ {
		a, b := rep.Rows[i-1], rep.Rows[i]
		if a.Rank > b.Rank || (a.Rank == b.Rank && a.Phase >= b.Phase) {
			t.Errorf("rows out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

func TestEnergyReportByPhaseAndText(t *testing.T) {
	l := syntheticLog()
	prof := power.PentiumM()
	rep := AttributeEnergy(l, prof, prof.TopState(), 2.25, []float64{2.25, 1.75})
	phases := rep.ByPhase()
	if len(phases) == 0 || phases[0].Joules < phases[len(phases)-1].Joules {
		t.Errorf("ByPhase not sorted by descending joules: %+v", phases)
	}
	text := rep.Text()
	for _, want := range []string{"phase", "init", "exchange", IdleTailPhase, "total"} {
		if !strings.Contains(text, want) {
			t.Errorf("report text missing %q:\n%s", want, text)
		}
	}
}

func TestManifestJSONAndFingerprint(t *testing.T) {
	m := NewManifest("patrace")
	m.Kernel, m.N, m.MHz = "ft", 4, 1400
	m.PlatformFingerprint = Fingerprint(struct{ A int }{1})
	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"tool": "patrace"`, `"go_version"`, `"platform_fingerprint"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("manifest missing %s:\n%s", want, data)
		}
	}
	if Fingerprint(struct{ A int }{1}) != m.PlatformFingerprint {
		t.Error("fingerprint not stable for equal content")
	}
	if Fingerprint(struct{ A int }{2}) == m.PlatformFingerprint {
		t.Error("fingerprint ignores content")
	}
}
