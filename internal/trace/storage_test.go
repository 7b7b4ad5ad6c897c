package trace

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// Tests of the chunked event storage: a log of any length, and a merge of
// any input, must read exactly as one flat slice of the same events would.

// testEvents returns n events cycling over three ranks, three phases and
// every kind, each rank's clock moving forward, with watts that vary.
func testEvents(n int) []Event {
	ev := make([]Event, n)
	var clock [3]float64
	for i := range ev {
		r := i % 3
		d := float64(i%7) * 0.125
		ev[i] = Event{Rank: r, Phase: []string{"fft", "exchange", "main"}[i/4%3], Kind: Kind(i % int(NumKinds)),
			Start: clock[r], End: clock[r] + d, Watts: 10 + float64(i%5)}
		clock[r] += d
	}
	return ev
}

// chunkedLog appends ev one at a time, first reserving grow events when
// grow > 0, so the log spans as many chunks as ev's length calls for.
func chunkedLog(ev []Event, grow int) *Log {
	l := &Log{}
	l.Grow(grow)
	for _, e := range ev {
		l.Append(e)
	}
	return l
}

// flatByPhase is ByPhase as one map update per event, in slice order.
func flatByPhase(ev []Event) map[string]float64 {
	m := map[string]float64{}
	for _, e := range ev {
		m[e.Phase] += e.Duration()
	}
	return m
}

// requireBitEqual fails unless got and want hold the same keys with
// bit-identical values.
func requireBitEqual(t *testing.T, label string, got, want map[string]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d phases, want %d", label, len(got), len(want))
	}
	for p, w := range want {
		if g, ok := got[p]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: phase %q = %.17g, want %.17g", label, p, g, w)
		}
	}
}

// stableSorted returns ev stable-sorted by (rank, start): what Merge must
// return for any input.
func stableSorted(ev []Event) []Event {
	out := append([]Event(nil), ev...)
	slices.SortStableFunc(out, func(a, b Event) int {
		if a.Rank != b.Rank {
			return cmp.Compare(a.Rank, b.Rank)
		}
		return cmp.Compare(a.Start, b.Start)
	})
	return out
}

func TestChunkedLogReadsAsFlat(t *testing.T) {
	for _, tc := range []struct {
		n, grow int
	}{{0, 0}, {1, 0}, {minChunk, 0}, {minChunk + 1, 0}, {5*minChunk + 3, 0}, {40, 3}, {300, 100}} {
		ev := testEvents(tc.n)
		if tc.n > 20 {
			ev[20].End = ev[20].Start - 1 // Validate must name this event's index
		}
		l := chunkedLog(ev, tc.grow)
		flat := &Log{chunks: [][]Event{ev}}
		label := fmt.Sprintf("%d events, %d chunks", tc.n, len(l.chunks))
		if got := l.Events(); len(got) != len(ev) || (len(ev) > 0 && !reflect.DeepEqual(got, ev)) {
			t.Errorf("%s: Events differ from the appended events", label)
		}
		if l.Len() != len(ev) {
			t.Errorf("%s: Len = %d", label, l.Len())
		}
		requireBitEqual(t, label+" ByPhase", l.ByPhase(), flatByPhase(ev))
		var tot [NumKinds]float64
		for _, e := range ev {
			tot[e.Kind] += e.Duration()
		}
		if l.TotalByKind() != tot {
			t.Errorf("%s: TotalByKind = %v, want %v", label, l.TotalByKind(), tot)
		}
		if got, want := fmt.Sprint(l.Validate()), fmt.Sprint(flat.Validate()); got != want {
			t.Errorf("%s: Validate = %s, want %s", label, got, want)
		}
		if l.TimelineCSV() != flat.TimelineCSV() {
			t.Errorf("%s: TimelineCSV differs from the flat log's", label)
		}
	}
}

// TestEventsLeavesLogUnchanged: Events on a log of several chunks returns a
// copy, and neither calling it nor writing to its result changes the log.
func TestEventsLeavesLogUnchanged(t *testing.T) {
	ev := testEvents(3 * minChunk)
	l := chunkedLog(ev, 0)
	chunks := len(l.chunks)
	got := l.Events()
	got[0].Phase = "changed"
	if len(l.chunks) != chunks || l.chunks[0][0].Phase != ev[0].Phase {
		t.Errorf("Events changed the log: %d chunks (was %d), first phase %q", len(l.chunks), chunks, l.chunks[0][0].Phase)
	}
}

// perRankLogs splits ev into one log per rank, in rank order.
func perRankLogs(ev []Event) []*Log {
	logs := make([]*Log, 3)
	for i := range logs {
		logs[i] = &Log{}
	}
	for _, e := range ev {
		logs[e.Rank].Append(e)
	}
	return logs
}

func TestMergeEqualsStableSort(t *testing.T) {
	ev := testEvents(7 * minChunk)
	ordered := perRankLogs(ev)
	var all []Event
	for _, l := range ordered {
		all = append(all, l.Events()...)
	}
	if got, want := Merge(ordered...).Events(), stableSorted(all); !reflect.DeepEqual(got, want) {
		t.Error("merge of ordered per-rank logs is not their stable sort by (rank, start)")
	}
	shuffled := append([]Event(nil), ev...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	a, b := chunkedLog(shuffled[:100], 0), chunkedLog(shuffled[100:], 0)
	if got, want := Merge(b, a).Events(), stableSorted(append(append([]Event(nil), shuffled[100:]...), shuffled[:100]...)); !reflect.DeepEqual(got, want) {
		t.Error("merge of shuffled logs is not their stable sort by (rank, start)")
	}
}

// TestMergeSharesNoAppends: a merged log links its inputs' chunks, yet an
// Append to an input after the merge leaves the merged log unchanged, and
// an Append to the merged log leaves every input unchanged.
func TestMergeSharesNoAppends(t *testing.T) {
	logs := perRankLogs(testEvents(minChunk + 5)) // each rank's log ends in a chunk with room
	m := Merge(logs...)
	before := m.Events()
	last := logs[2].Events()
	logs[2].Append(Event{Rank: 2, Phase: "late", Start: 1e3, End: 1e3 + 1})
	if !reflect.DeepEqual(m.Events(), before) {
		t.Error("an Append to an input changed the merged log")
	}
	m.Append(Event{Rank: 2, Phase: "merged", Start: 2e3, End: 2e3 + 1})
	if got := logs[2].Events(); len(got) != len(last)+1 || got[len(got)-1].Phase != "late" {
		t.Errorf("an Append to the merged log changed an input: its last event is %+v", got[len(got)-1])
	}
	if got := m.Events(); len(got) != len(before)+1 || got[len(got)-1].Phase != "merged" {
		t.Errorf("the merged log lost its own Append: %d events, want %d", len(got), len(before)+1)
	}
}

// TestLogBytesPerEvent pins the storage cost of a log: four rank logs of
// 100,000 events each, appended and then merged, allocate at most 80 B per
// 56-byte event. A slice grown by append allocates several times its final
// size, and a merge that copies doubles it again.
func TestLogBytesPerEvent(t *testing.T) {
	const ranks, n = 4, 100_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	logs := make([]*Log, ranks)
	for r := range logs {
		logs[r] = &Log{}
		for i := 0; i < n; i++ {
			logs[r].Append(Event{Rank: r, Phase: "p", Start: float64(i), End: float64(i + 1)})
		}
	}
	m := Merge(logs...)
	runtime.ReadMemStats(&after)
	if m.Len() != ranks*n {
		t.Fatalf("merged %d events, want %d", m.Len(), ranks*n)
	}
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / (ranks * n)
	t.Logf("%.0f B per event", perEvent)
	if perEvent > 80 {
		t.Errorf("appending and merging allocate %.0f B per event, want at most 80", perEvent)
	}
}

// FuzzMerge decodes its input into up to eight per-rank logs whose events
// may be out of order and span chunk boundaries, and checks that Merge
// returns their stable sort by (rank, start), that Len counts every event,
// that ByPhase adds each event's duration in merged order, bit for bit,
// that MergeByPhase returns the same log and sums, and that a later Append
// to an input leaves the merged log as it was.
// Each four-byte record appends a run of up to 63 events to one log, so a
// short input crosses chunks; records past the 32nd are ignored, which
// bounds a run at about 2,000 events.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 40, 1, 1, 0, 9, 2, 2, 5, 63})
	f.Add([]byte{8, 7, 1, 200, 63, 0, 1, 3, 63, 7, 1, 0, 12, 3, 6, 9, 33})
	f.Add([]byte{1, 0, 5, 9, 0, 0, 2, 1, 50})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		data = data[:min(len(data), 1+4*32)]
		logs := make([]*Log, 1+int(data[0])%8)
		for i := range logs {
			logs[i] = &Log{}
		}
		var all []Event
		for rec := data[1:]; len(rec) >= 4; rec = rec[4:] {
			l := int(rec[0]) % len(logs)
			start := float64(rec[2])
			for i := 0; i < int(rec[3])%64; i++ {
				e := Event{Rank: int(rec[1]) % 8, Phase: string(rune('a' + (int(rec[1])+i)%3)),
					Start: start, End: start + float64(i%5)*0.1}
				logs[l].Append(e)
				start = e.End
			}
		}
		for _, l := range logs {
			all = append(all, l.Events()...)
		}
		m := Merge(logs...)
		want := stableSorted(all)
		if m.Len() != len(all) {
			t.Fatalf("Len = %d, want %d", m.Len(), len(all))
		}
		if !slices.Equal(m.Events(), want) {
			t.Fatal("merged events are not the stable sort by (rank, start)")
		}
		requireBitEqual(t, "merged ByPhase", m.ByPhase(), flatByPhase(want))
		mp, phases := MergeByPhase(logs...)
		if !slices.Equal(mp.Events(), want) {
			t.Fatal("MergeByPhase's events are not the stable sort by (rank, start)")
		}
		requireBitEqual(t, "MergeByPhase", phases, flatByPhase(want))
		logs[0].Append(Event{Rank: 7, Phase: "late", Start: 1e9, End: 1e9})
		if !slices.Equal(m.Events(), want) {
			t.Fatal("an Append to an input after Merge changed the merged log")
		}
	})
}
