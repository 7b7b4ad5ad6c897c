package trace

import (
	"strings"
	"testing"
)

func TestAppendAndTotals(t *testing.T) {
	var l Log
	l.Append(Event{Rank: 0, Phase: "fft", Kind: Compute, Start: 0, End: 2})
	l.Append(Event{Rank: 0, Phase: "alltoall", Kind: Comm, Start: 2, End: 5})
	l.Append(Event{Rank: 0, Phase: "fft", Kind: Compute, Start: 5, End: 6})
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	tot := l.TotalByKind()
	if tot[Compute] != 3 || tot[Comm] != 3 {
		t.Errorf("totals = %v, want [3 3]", tot)
	}
	by := l.ByPhase()
	if by["fft"] != 3 || by["alltoall"] != 3 {
		t.Errorf("ByPhase = %v", by)
	}
}

func TestValidate(t *testing.T) {
	var ok Log
	ok.Append(Event{Rank: 0, Start: 0, End: 1})
	ok.Append(Event{Rank: 0, Start: 1, End: 1}) // zero duration is fine
	ok.Append(Event{Rank: 1, Start: 0, End: 5}) // other rank independent
	if err := ok.Validate(); err != nil {
		t.Errorf("valid log rejected: %v", err)
	}

	var neg Log
	neg.Append(Event{Rank: 0, Start: 2, End: 1})
	if err := neg.Validate(); err == nil {
		t.Error("negative duration accepted")
	}

	var back Log
	back.Append(Event{Rank: 0, Start: 0, End: 3})
	back.Append(Event{Rank: 0, Start: 1, End: 4})
	if err := back.Validate(); err == nil {
		t.Error("backwards event accepted")
	}
}

func TestMergeOrdersByRankThenTime(t *testing.T) {
	var a, b Log
	a.Append(Event{Rank: 1, Start: 0, End: 1})
	b.Append(Event{Rank: 0, Start: 5, End: 6})
	b.Append(Event{Rank: 0, Start: 0, End: 2})
	m := Merge(&a, &b)
	ev := m.Events()
	if len(ev) != 3 {
		t.Fatalf("merged %d events, want 3", len(ev))
	}
	if ev[0].Rank != 0 || ev[0].Start != 0 || ev[1].Start != 5 || ev[2].Rank != 1 {
		t.Errorf("merge order wrong: %+v", ev)
	}

	// Events with equal (rank, start) keys keep their input order, both
	// when the input is already ordered and Merge does not sort, and when
	// it is not and Merge sorts.
	var r0, r1 Log
	for _, p := range []string{"a", "b", "c"} {
		r0.Append(Event{Rank: 0, Phase: p, Start: 1, End: 1})
	}
	for _, p := range []string{"d", "e"} {
		r1.Append(Event{Rank: 1, Phase: p, Start: 0, End: 0})
	}
	for _, tc := range []struct {
		name string
		logs []*Log
	}{{"ordered", []*Log{&r0, &r1}}, {"unordered", []*Log{&r1, &r0}}} {
		var got string
		for _, e := range Merge(tc.logs...).Events() {
			got += e.Phase
		}
		if got != "abcde" {
			t.Errorf("%s input: merged phases %q, want \"abcde\"", tc.name, got)
		}
	}
}

func TestSummaryDescending(t *testing.T) {
	var l Log
	l.Append(Event{Phase: "small", Kind: Compute, Start: 0, End: 1})
	l.Append(Event{Phase: "big", Kind: Comm, Start: 1, End: 10})
	sum := l.Summary()
	if strings.Index(sum, "big") > strings.Index(sum, "small") {
		t.Errorf("summary not sorted by descending time:\n%s", sum)
	}
}

func TestKindString(t *testing.T) {
	if Compute.String() != "compute" || Comm.String() != "comm" {
		t.Error("kind names wrong")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestTimelineCSV(t *testing.T) {
	var l Log
	l.Append(Event{Rank: 1, Phase: "b", Kind: Comm, Start: 2, End: 3})
	l.Append(Event{Rank: 0, Phase: "a", Kind: Compute, Start: 0, End: 2})
	csv := l.TimelineCSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), csv)
	}
	if lines[0] != "rank,phase,kind,start,end,duration,watts" {
		t.Errorf("header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,a,compute,") {
		t.Errorf("rows not ordered by rank: %q", lines[1])
	}
	if !strings.Contains(lines[2], "1,b,comm,") {
		t.Errorf("row 2: %q", lines[2])
	}
}

func TestCriticalPhase(t *testing.T) {
	var l Log
	l.Append(Event{Phase: "small", Start: 0, End: 1})
	l.Append(Event{Phase: "big", Start: 1, End: 4})
	p, share := l.CriticalPhase()
	if p != "big" || share != 0.75 {
		t.Errorf("critical = %q %g, want big 0.75", p, share)
	}
	var empty Log
	if p, s := empty.CriticalPhase(); p != "" || s != 0 {
		t.Error("empty log critical phase wrong")
	}
}

func TestPowerProfile(t *testing.T) {
	var l Log
	// Rank 0: 100 W for [0,1), 40 W for [1,2). Rank 1: 60 W for [0,2).
	l.Append(Event{Rank: 0, Kind: Compute, Start: 0, End: 1, Watts: 100})
	l.Append(Event{Rank: 0, Kind: Comm, Start: 1, End: 2, Watts: 40})
	l.Append(Event{Rank: 1, Kind: Compute, Start: 0, End: 2, Watts: 60})
	p := l.PowerProfile(0.5, 2)
	if len(p) < 4 {
		t.Fatalf("got %d samples", len(p))
	}
	if p[0] != 160 || p[1] != 160 {
		t.Errorf("first second = %g/%g W, want 160", p[0], p[1])
	}
	if p[2] != 100 || p[3] != 100 {
		t.Errorf("second second = %g/%g W, want 100", p[2], p[3])
	}
	if l.PowerProfile(0, 2) != nil || l.PowerProfile(0.5, 0) != nil {
		t.Error("degenerate arguments should yield nil")
	}
}
