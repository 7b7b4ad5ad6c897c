package trace

import (
	"math"
	"strings"
	"testing"
)

// Edge cases of the trace layer: empty logs, degenerate sampling parameters,
// events straddling sample boundaries, and the chaos-harness kinds flowing
// through every aggregation.

func TestEmptyLog(t *testing.T) {
	var l Log
	if l.Len() != 0 || len(l.Events()) != 0 {
		t.Error("empty log has events")
	}
	if err := l.Validate(); err != nil {
		t.Errorf("empty log invalid: %v", err)
	}
	if tot := l.TotalByKind(); tot != [NumKinds]float64{} {
		t.Errorf("empty log TotalByKind = %v", tot)
	}
	if p := l.PowerProfile(0.1, 0); p != nil {
		t.Errorf("empty log PowerProfile = %v", p)
	}
	if phase, share := l.CriticalPhase(); phase != "" || share != 0 {
		t.Errorf("empty log CriticalPhase = %q, %g", phase, share)
	}
	if csv := l.TimelineCSV(); csv != "rank,phase,kind,start,end,duration,watts\n" {
		t.Errorf("empty log TimelineCSV = %q", csv)
	}
	if sum := l.Summary(); sum != "" {
		t.Errorf("empty log Summary = %q", sum)
	}
	if m := Merge(&l, &Log{}); m.Len() != 0 {
		t.Error("merge of empty logs not empty")
	}
}

func TestPowerProfileDegenerateParams(t *testing.T) {
	var l Log
	l.Append(Event{Rank: 0, Phase: "a", Kind: Compute, Start: 0, End: 1, Watts: 20})
	for _, c := range []struct {
		name         string
		dt, makespan float64
	}{
		{"zero dt", 0, 1},
		{"negative dt", -0.1, 1},
		{"zero makespan", 0.1, 0},
		{"negative makespan", 0.1, -1},
	} {
		if p := l.PowerProfile(c.dt, c.makespan); p != nil {
			t.Errorf("%s: PowerProfile = %v, want nil", c.name, p)
		}
	}
}

func TestPowerProfileBoundaryStraddle(t *testing.T) {
	var l Log
	// One 20 W event straddling the boundary between sample 0 and sample 1:
	// half its power lands in each bin.
	l.Append(Event{Rank: 0, Phase: "a", Kind: Compute, Start: 0.05, End: 0.15, Watts: 20})
	p := l.PowerProfile(0.1, 0.2)
	if len(p) != 3 {
		t.Fatalf("got %d samples, want 3", len(p))
	}
	if math.Abs(p[0]-10) > 1e-9 || math.Abs(p[1]-10) > 1e-9 {
		t.Errorf("straddling event split as %g/%g, want 10/10", p[0], p[1])
	}
	if p[2] != 0 {
		t.Errorf("sample past the event holds %g W", p[2])
	}
	// An event ending exactly on a boundary contributes nothing past it.
	var l2 Log
	l2.Append(Event{Rank: 0, Phase: "a", Kind: Compute, Start: 0, End: 0.1, Watts: 30})
	p2 := l2.PowerProfile(0.1, 0.2)
	if math.Abs(p2[0]-30) > 1e-9 || p2[1] != 0 {
		t.Errorf("boundary-aligned event split as %g/%g, want 30/0", p2[0], p2[1])
	}
	// Zero-watt and zero-duration events are skipped entirely.
	var l3 Log
	l3.Append(Event{Rank: 0, Phase: "a", Kind: Compute, Start: 0, End: 0.1, Watts: 0})
	l3.Append(Event{Rank: 0, Phase: "a", Kind: Compute, Start: 0.1, End: 0.1, Watts: 50})
	for i, v := range l3.PowerProfile(0.1, 0.2) {
		if v != 0 {
			t.Errorf("sample %d holds %g W from zero-watt/zero-duration events", i, v)
		}
	}
}

// TestFaultKindsThroughAggregations pushes the chaos-harness kinds through
// every consumer: TotalByKind, TimelineCSV naming/ordering and the CSV
// duration column.
func TestFaultKindsThroughAggregations(t *testing.T) {
	var l Log
	l.Append(Event{Rank: 0, Phase: "work", Kind: Compute, Start: 0, End: 1, Watts: 25})
	l.Append(Event{Rank: 0, Phase: "work", Kind: Fault, Start: 1, End: 1.5, Watts: 25})
	l.Append(Event{Rank: 0, Phase: "exch", Kind: Retry, Start: 1.5, End: 1.75, Watts: 12})
	l.Append(Event{Rank: 1, Phase: "exch", Kind: Comm, Start: 0, End: 1.75, Watts: 12})
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	tot := l.TotalByKind()
	if tot[Fault] != 0.5 || tot[Retry] != 0.25 || tot[Compute] != 1 || tot[Comm] != 1.75 {
		t.Errorf("TotalByKind = %v", tot)
	}
	csv := l.TimelineCSV()
	for _, want := range []string{",fault,", ",retry,", ",compute,", ",comm,"} {
		if !strings.Contains(csv, want) {
			t.Errorf("TimelineCSV missing %q:\n%s", want, csv)
		}
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 5 {
		t.Fatalf("TimelineCSV has %d lines, want 5", len(lines))
	}
	// Rows ordered by (rank, start): rank 0's three events, then rank 1's.
	for i, prefix := range []string{"rank,", "0,work,compute", "0,work,fault", "0,exch,retry", "1,exch,comm"} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
	// The injected power draw flows into the profile like any other event.
	p := l.PowerProfile(1.75, 1.75)
	if len(p) == 0 || p[0] <= 0 {
		t.Errorf("PowerProfile ignored fault events: %v", p)
	}
}

func TestKindStringNames(t *testing.T) {
	if Fault.String() != "fault" || Retry.String() != "retry" {
		t.Errorf("chaos kinds named %q, %q", Fault.String(), Retry.String())
	}
	if s := Kind(NumKinds).String(); !strings.Contains(s, "Kind(") {
		t.Errorf("out-of-range kind = %q", s)
	}
	// Out-of-range kinds must not corrupt TotalByKind.
	var l Log
	l.Append(Event{Rank: 0, Kind: Kind(99), Start: 0, End: 1})
	l.Append(Event{Rank: 0, Kind: Kind(-1), Start: 1, End: 2})
	if tot := l.TotalByKind(); tot != [NumKinds]float64{} {
		t.Errorf("out-of-range kinds counted: %v", tot)
	}
}

func TestValidateNegativeDuration(t *testing.T) {
	var l Log
	l.Append(Event{Rank: 0, Phase: "a", Kind: Fault, Start: 2, End: 1})
	if err := l.Validate(); err == nil {
		t.Error("negative-duration fault event accepted")
	}
	var l2 Log
	l2.Append(Event{Rank: 0, Phase: "a", Kind: Retry, Start: 5, End: 5})
	if err := l2.Validate(); err != nil {
		t.Errorf("zero-duration retry event rejected: %v", err)
	}
}
