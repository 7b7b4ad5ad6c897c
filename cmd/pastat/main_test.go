package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pasp/internal/obs"
)

// TestReportGolden pins the full text report over the seeded event log. The
// log covers every disposition (miss, hit, coalesced), a 5xx, a duplicate
// request ID and an event whose stages do not close — the golden proves the
// analyzer attributes each percentile to a named stage.
func TestReportGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "report.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	n, err := run([]string{"-events", filepath.Join("testdata", "events.jsonl")}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("findings = %d without -slo or -strict, want 0", n)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("report drifted from golden:\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}
}

// TestSLOBurn pins the objective evaluation: the seeded log's p99 is
// ~202ms with a 10% error rate, so a 100ms/1% SLO burns twice.
func TestSLOBurn(t *testing.T) {
	var out bytes.Buffer
	n, err := run([]string{
		"-events", filepath.Join("testdata", "events.jsonl"),
		"-slo", "p99=100ms,err_rate=0.01",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("findings = %d, want 2 (p99 and err_rate)\n%s", n, out.Bytes())
	}
	for _, want := range []string{"SLO BURN: p99", "SLO BURN: err_rate"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.Bytes())
		}
	}

	out.Reset()
	n, err = run([]string{
		"-events", filepath.Join("testdata", "events.jsonl"),
		"-slo", "p99=500ms,max=500ms,err_rate=0.5",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("loose SLO burned %d times:\n%s", n, out.Bytes())
	}
}

// TestStrictFindings pins strict mode over the seeded log: one duplicate
// ID, one 5xx, one event whose stage sum misses its total by more than the
// budget.
func TestStrictFindings(t *testing.T) {
	var out bytes.Buffer
	n, err := run([]string{
		"-events", filepath.Join("testdata", "events.jsonl"), "-strict",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("strict findings = %d, want 3\n%s", n, out.Bytes())
	}
	for _, want := range []string{
		"request id(s) appear on more than one event",
		"answered 500: serve: boom",
		"stage sum",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("strict output missing %q:\n%s", want, out.Bytes())
		}
	}
}

// TestJSONReport checks the machine-readable mirror carries the same
// headline numbers.
func TestJSONReport(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{
		"-events", filepath.Join("testdata", "events.jsonl"), "-json",
	}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"events": 10`, `"requests_per_simulation": 2`, `"duplicate_ids": 1`,
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("JSON report missing %s:\n%s", want, out.Bytes())
		}
	}
}

// TestValidateTrace pins the trace check: a well-formed Chrome trace passes,
// a corrupt one is a finding (not an error — the tool still exits 1, not 2).
func TestValidateTrace(t *testing.T) {
	dir := t.TempDir()
	rec := obs.NewRecorder()
	id := rec.StartSpanAt(-1, "req:predict", 0, 0.1)
	rec.EndSpan(id, 0.2)
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, obs.SpansChromeTrace(rec.Spans(), "test"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	n, err := run([]string{"-validate-trace", good}, &out)
	if err != nil || n != 0 {
		t.Fatalf("valid trace: findings %d, err %v\n%s", n, err, out.Bytes())
	}
	if !strings.Contains(out.String(), "valid") {
		t.Errorf("output missing the verdict:\n%s", out.Bytes())
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"traceEvents": "nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	n, err = run([]string{"-validate-trace", bad}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || !strings.Contains(out.String(), "TRACE INVALID") {
		t.Errorf("corrupt trace: findings %d, output:\n%s", n, out.Bytes())
	}
}

// TestRunInputErrors pins the exit-2 class: no inputs, a missing file, an
// empty log, a bad SLO.
func TestRunInputErrors(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{},
		{"-events", "does-not-exist.jsonl"},
		{"-events", empty},
		{"-events", filepath.Join("testdata", "events.jsonl"), "-slo", "p99=banana"},
		{"-events", filepath.Join("testdata", "events.jsonl"), "-slo", "p42=1s"},
	} {
		var out bytes.Buffer
		_, err := run(args, &out)
		if err == nil {
			t.Errorf("run(%v) succeeded, want an error", args)
		} else if strings.HasPrefix(err.Error(), "pastat: ") {
			t.Errorf("run(%v) error %q names the command; main adds that prefix", args, err)
		}
	}
}

// TestParseSLO pins the flag grammar.
func TestParseSLO(t *testing.T) {
	obj, err := parseSLO("p50=10ms, p99=500ms,max=2s,err_rate=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if obj.p50 != 10*time.Millisecond || obj.p99 != 500*time.Millisecond ||
		obj.max != 2*time.Second || !obj.hasErrRate || obj.errRate != 0.01 {
		t.Errorf("parsed %+v", obj)
	}
	for _, bad := range []string{"p99", "p99=-1ms", "err_rate=2", "err_rate=x", "zzz=1s"} {
		if _, err := parseSLO(bad); err == nil {
			t.Errorf("parseSLO(%q) succeeded, want an error", bad)
		}
	}
	if obj, err := parseSLO(""); err != nil || obj != (slo{}) {
		t.Errorf("empty slo = %+v, %v", obj, err)
	}
}
