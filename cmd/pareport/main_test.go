package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"pasp/internal/experiments"
)

// TestReportQuick renders the quick-suite report twice: every artifact's
// title heads exactly one section, extrapolation, which needs N = 16, reads
// as skipped, and the two reports are byte-identical.
func TestReportQuick(t *testing.T) {
	var a, b strings.Builder
	for _, w := range []*strings.Builder{&a, &b} {
		if err := report(context.Background(), w, "quick", experiments.Quick()); err != nil {
			t.Fatal(err)
		}
	}
	out := a.String()
	for _, art := range experiments.Artifacts() {
		if n := strings.Count(out, "\n## "+art.Title+"\n"); n != 1 {
			t.Errorf("title %q heads %d sections, want 1", art.Title, n)
		}
		if art.Name == "extrapolation" && !strings.Contains(out, "\n## "+art.Title+"\n\nskipped: ") {
			t.Errorf("extrapolation does not read as skipped on the quick suite:\n%s", out)
		}
	}
	if out != b.String() {
		t.Error("two quick-suite reports differ")
	}
}

// failWriter accepts room bytes, then fails every write, as a full disk
// does.
type failWriter struct {
	room int
	err  error
}

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.room {
		return 0, f.err
	}
	f.room -= len(p)
	return len(p), nil
}

// TestReportReturnsWriteError: a write that fails mid-report, after the
// header and the first sections went out, fails the report.
func TestReportReturnsWriteError(t *testing.T) {
	full := errors.New("no space left on device")
	w := &failWriter{room: 2000, err: full}
	if err := report(context.Background(), w, "quick", experiments.Quick()); !errors.Is(err, full) {
		t.Errorf("report returned %v, want %v", err, full)
	}
	if w.room == 2000 {
		t.Error("the first write failed; the test wants a failure mid-report")
	}
}
