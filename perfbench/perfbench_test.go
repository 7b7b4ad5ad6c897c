package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

func TestPercentileNearestRankNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed, so percentile must sort
		}
		return s
	}
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		report bool
	}{
		{30, 50, 15, true},    // rank 15, 15 beyond
		{30, 90, 27, false},   // rank 27, 3 beyond: about 30 misses give no p90
		{20, 50, 10, true},    // rank 10, exactly 10 beyond
		{19, 50, 10, false},   // rank 10, 9 beyond
		{1000, 99, 990, true}, // rank 990, 10 beyond
		{999, 99, 990, false}, // rank ceil(989.01) = 990, 9 beyond
		{1, 50, 1, false},
	} {
		got, ok := percentile(ramp(c.n), c.p)
		if got != c.want || ok != c.report {
			t.Errorf("p%g of 1..%d = %g (reportable %v), want %g (%v)", c.p, c.n, got, ok, c.want, c.report)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples is reportable")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	vs := []float64{4, 1, 3, 2}
	if m := median(vs); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if vs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestScheduleIsSeededPermutationOfTheDeck(t *testing.T) {
	deck := []int{0, 0, 0, 1, 2, 3, 4, 5, 6, 6}
	a := schedule(7, deck, 5*len(deck))
	if b := schedule(7, deck, 5*len(deck)); !equalU16(a, b) {
		t.Fatal("the same seed gave two sequences")
	}
	c := schedule(8, deck, 5*len(deck))
	if equalU16(a, c) {
		t.Fatal("two seeds gave the same sequence")
	}
	// Every cycle deals each deck entry exactly once, whatever the seed,
	// so every seed sends the same distinct requests and the recorded
	// bodies apply to all of them.
	want := counts(deck)
	for _, s := range [][]uint16{a, c} {
		for cyc := 0; cyc < 5; cyc++ {
			got := map[int]int{}
			for _, v := range s[cyc*len(deck) : (cyc+1)*len(deck)] {
				got[int(v)]++
			}
			if !equalCounts(got, want) {
				t.Fatalf("cycle %d deals %v, want %v", cyc, got, want)
			}
		}
	}
}

func equalU16(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func counts(deck []int) map[int]int {
	m := map[int]int{}
	for _, v := range deck {
		m[v]++
	}
	return m
}

func equalCounts(a, b map[int]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// fakeServer answers every request with its recorded body, except that it
// corrupts one byte of every third answer and fails every fifth with 500.
type fakeServer struct {
	bodies map[string][]byte
	calls  atomic.Int64
}

func (f *fakeServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Kernel string `json:"kernel"`
	}
	_ = json.NewDecoder(r.Body).Decode(&req)
	n := f.calls.Add(1)
	if n%5 == 0 {
		w.WriteHeader(http.StatusInternalServerError)
		return
	}
	body := append([]byte(nil), f.bodies[req.Kernel]...)
	if n%3 == 0 {
		body[len(body)/2] ^= 1
	}
	w.Write(body)
}

func TestHitLoopCountsWrongBodiesAndErrorsAsFailed(t *testing.T) {
	bodies := map[string][]byte{"ep": []byte(`{"kernel":"ep"}` + "\n"), "ft": []byte(`{"kernel":"ft"}` + "\n")}
	f := &fakeServer{bodies: bodies}
	st := &serveState{
		h: f,
		distinct: []request{
			{key: "a", path: "/predict", body: []byte(`{"kernel":"ep"}`)},
			{key: "b", path: "/predict", body: []byte(`{"kernel":"ft"}`)},
		},
		expected: [][]byte{bodies["ep"], bodies["ft"]},
		sched:    schedule(1, []int{0, 1}, 64),
	}
	var next atomic.Uint64
	var log phaseLog
	st.hitLoop(newClient(f, nil, 0), &next, 30, nil, &log)
	res := &childResult{}
	recordLog(res, "hit", &log)
	p := res.Phases[0]
	// Calls 1..30: multiples of 3 or 5 fail — 14 of them.
	if p.Sent != 30 || p.Failed != 14 || p.Succeeded != 16 {
		t.Fatalf("phase counts %+v, want 30 sent, 14 failed", p)
	}
	var out bytes.Buffer
	if err := report(&out, "serve", []*childResult{res}, map[string]float64{"wall_s": 1}, []metric{{"wall_s", "s"}}); err != nil {
		t.Fatal(err)
	}
	last := out.String()[strings.LastIndex(strings.TrimSpace(out.String()), "\n")+1:]
	var got struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(last), &got); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	if got.Correct || got.Attempted != 30 || got.Failed != 14 {
		t.Fatalf("result %+v, want correct=false attempted=30 failed=14", got)
	}
}

// TestReportNeedsEveryListedMetric pins the result line's contract: it
// holds exactly the listed metrics, each in its unit, and a run that did
// not measure one of them prints no result line at all.
func TestReportNeedsEveryListedMetric(t *testing.T) {
	res := &childResult{}
	res.record("cells", nil)
	list := []metric{{"wall_s", "s"}, {"rss_peak_mb", "MB"}}
	var out bytes.Buffer
	if err := report(&out, "sweep-scale", []*childResult{res}, map[string]float64{"wall_s": 2}, list); err == nil {
		t.Fatal("a run missing rss_peak_mb reported a result")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Fatalf("a result line was printed for an incomplete run:\n%s", out.String())
	}
	out.Reset()
	metrics := map[string]float64{"wall_s": 2, "rss_peak_mb": 300, "hit_rps": 9}
	if err := report(&out, "sweep-scale", []*childResult{res}, metrics, list); err != nil {
		t.Fatal(err)
	}
	text := strings.TrimSpace(out.String())
	var got struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(text[strings.LastIndex(text, "\n")+1:]), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != 2 || got.Metrics["wall_s"].Unit != "s" || got.Metrics["rss_peak_mb"].Value != 300 {
		t.Fatalf("result metrics %+v, want exactly wall_s [s] and rss_peak_mb = 300", got.Metrics)
	}
	if !strings.Contains(text, "detail hit_rps") {
		t.Errorf("an unlisted figure was not printed as a detail:\n%s", text)
	}
}

func TestCheckerRejectsCorruptedAndNon2xx(t *testing.T) {
	row := `{"kernel":"ft","n":2,"mhz":600,"seconds":1}`
	c := &checker{
		gold:     &goldenSet{want: map[string]string{}},
		contract: map[string][]byte{"predict ft n=2 f=600": []byte(row + "\n")},
	}
	predict := request{key: "predict ft n=2 f=600", path: "/predict", kernel: "ft"}
	sweep := request{key: "sweep ft", path: "/sweep", kernel: "ft"}
	good := []byte(row + "\n")
	c.gold.want[predict.key] = digest(good)
	sweepBody := []byte(`{"kernel":"ft","rows":[` + row + `]}` + "\n")
	c.gold.want[sweep.key] = digest(sweepBody)
	if err := c.check(predict, http.StatusOK, good); err != nil {
		t.Fatalf("good body rejected: %v", err)
	}
	if err := c.check(sweep, http.StatusOK, sweepBody); err != nil {
		t.Fatalf("good sweep rejected: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[10] ^= 1
	if c.check(predict, http.StatusOK, bad) == nil {
		t.Error("a corrupted /predict byte passed")
	}
	badSweep := bytes.Replace(sweepBody, []byte(`"seconds":1`), []byte(`"seconds":2`), 1)
	if c.check(sweep, http.StatusOK, badSweep) == nil {
		t.Error("a /sweep row differing from the contract passed")
	}
	if c.check(predict, http.StatusTooManyRequests, good) == nil {
		t.Error("a 429 passed")
	}
	if c.check(request{key: "unrecorded", path: "/trace"}, http.StatusOK, good) == nil {
		t.Error("a body with no recorded digest passed")
	}
}

func TestBenchmarkJSONListsTheCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		json    []struct{ Name, Unit string }
		catalog []metric
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.catalog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the catalog %d", len(c.json), len(c.catalog))
		}
		for i, m := range c.catalog {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the catalog %s [%s]",
					i, c.json[i].Name, c.json[i].Unit, m.name, m.unit)
			}
		}
	}
}
