package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pasp/internal/obs"
)

// TestRunEndToEnd drives the whole patrace pipeline twice into temp files
// and checks the exports are valid, complete and byte-identical per seed —
// the determinism contract the manifest exists to certify.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	args := func(i int) []string {
		return []string{
			"-kernel", "ft", "-n", "2", "-f", "0.6ghz", "-suite", "quick",
			"-chaos", "seed=7,jitter=0.5",
			"-out", filepath.Join(dir, "run"+string(rune('a'+i))+".trace.json"),
			"-manifest", filepath.Join(dir, "run"+string(rune('a'+i))+".json"),
			"-metrics",
		}
	}
	var outA, outB bytes.Buffer
	if err := run(args(0), &outA); err != nil {
		t.Fatal(err)
	}
	if err := run(args(1), &outB); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"per-phase energy attribution", "idle-tail", "trace OK", "manifest written", "counter mpi.runs 1"} {
		if !strings.Contains(outA.String(), want) {
			t.Errorf("patrace output missing %q:\n%s", want, outA.String())
		}
	}
	traceA, err := os.ReadFile(filepath.Join(dir, "runa.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	traceB, err := os.ReadFile(filepath.Join(dir, "runb.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traceA, traceB) {
		t.Error("two runs with the same seed produced different trace bytes")
	}
	if _, err := obs.ValidateChromeTrace(traceA); err != nil {
		t.Errorf("written trace fails validation: %v", err)
	}
	manA, err := os.ReadFile(filepath.Join(dir, "runa.json"))
	if err != nil {
		t.Fatal(err)
	}
	manB, err := os.ReadFile(filepath.Join(dir, "runb.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(manA, manB) {
		t.Error("two runs with the same seed produced different manifest bytes")
	}
	for _, want := range []string{`"tool": "patrace"`, `"kernel": "ft"`, `"platform_fingerprint"`, `"metrics"`} {
		if !strings.Contains(string(manA), want) {
			t.Errorf("manifest missing %s", want)
		}
	}
}

// TestRunRejectsBadInput pins the failure modes to errors, not writes.
func TestRunRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "x.trace.json")
	for _, tc := range []struct {
		args []string
		// errHas is text the error must contain.
		errHas []string
	}{
		{args: []string{"-kernel", "nope", "-out", out}},
		{args: []string{"-f", "fast", "-out", out}},
		{args: []string{"-f", "nan", "-out", out}},
		{args: []string{"-suite", "huge", "-out", out}},
		{args: []string{"-chaos", "seed=", "-out", out}},
		// A jitter that would overflow the run to +Inf joules is past its
		// ceiling: the spec is refused before anything runs.
		{args: []string{"-suite", "quick", "-n", "2", "-chaos", "seed=1,jitter=1e308", "-out", out}, errHas: []string{"LatencyJitterFrac = 1e+308"}},
	} {
		var buf bytes.Buffer
		err := run(tc.args, &buf)
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", tc.args)
		} else if strings.HasPrefix(err.Error(), "patrace: ") {
			t.Errorf("run(%v) error %q names the command; main adds that prefix", tc.args, err)
		} else {
			for _, want := range tc.errHas {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("run(%v) error %q, want it to name %q", tc.args, err, want)
				}
			}
		}
		if strings.Contains(buf.String(), "sums to run total") {
			t.Errorf("run(%v) claimed the attribution sums to the run total before failing:\n%s", tc.args, buf.String())
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("run(%v) wrote %s despite failing", tc.args, out)
		}
	}
}
