package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pasp/internal/experiments"
	"pasp/internal/obs"
)

// TestRequestIDEcho pins the ID contract: every response carries an
// X-Request-ID — a fresh 16-hex-digit one by default, the client's own when
// it sends a well-formed one, and a replacement when the inbound ID is
// garbage.
func TestRequestIDEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{Suite: experiments.Quick()})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" {
		t.Fatalf("generated ID = %q, want 16 hex digits", id)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "client-chose-this")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-chose-this" {
		t.Fatalf("inbound ID echoed as %q, want client-chose-this", got)
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "has spaces in it")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); !validRequestID(got) || strings.Contains(got, " ") {
		t.Fatalf("garbage inbound ID echoed as %q, want a clean replacement", got)
	}

	// The 405 path carries the ID too: telemetry covers refusals.
	resp, err = http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("X-Request-ID") == "" {
		t.Fatalf("405 response: status %d, id %q — want 405 with an ID", resp.StatusCode, resp.Header.Get("X-Request-ID"))
	}
}

// TestWideEventsRecorded drives a miss then a hit through an event-logging
// server and checks the wide events: identity, cache dispositions, status,
// and the book-closing property that the stages sum to the measured total.
func TestWideEventsRecorded(t *testing.T) {
	log := obs.NewEventLog(nil, 16)
	_, ts := newTestServer(t, Config{Suite: quickVariant(), Events: log})

	body := `{"kernel":"ft","n":4,"f":1400}`
	if code, b := post(t, ts, "/predict", body); code != http.StatusOK {
		t.Fatalf("miss request: %d (%s)", code, b)
	}
	if code, b := post(t, ts, "/predict", body); code != http.StatusOK {
		t.Fatalf("hit request: %d (%s)", code, b)
	}
	if code, _ := post(t, ts, "/predict", `{"kernel":"nope","n":4,"f":1400}`); code != http.StatusNotFound {
		t.Fatalf("unknown kernel: %d, want 404", code)
	}

	events := log.Snapshot()
	if len(events) != 3 {
		t.Fatalf("recorded %d events, want 3", len(events))
	}
	miss, hit, bad := events[0], events[1], events[2]
	if miss.Cache != "miss" || hit.Cache != "hit" {
		t.Errorf("cache dispositions = %q, %q — want miss, hit", miss.Cache, hit.Cache)
	}
	if miss.Kernel != "ft" || miss.N != 4 || miss.MHz != 1400 {
		t.Errorf("miss config = %s/%d/%g, want ft/4/1400", miss.Kernel, miss.N, miss.MHz)
	}
	if miss.SweepS <= 0 {
		t.Errorf("miss sweep stage = %g, want > 0 (it led the simulation)", miss.SweepS)
	}
	if hit.SweepS != 0 || hit.CoalesceS != 0 {
		t.Errorf("hit charged simulation time: sweep %g, coalesce %g", hit.SweepS, hit.CoalesceS)
	}
	if bad.Status != http.StatusNotFound || bad.Err == "" {
		t.Errorf("error event: status %d err %q, want 404 with a message", bad.Status, bad.Err)
	}
	for _, e := range events {
		if e.ID == "" || e.Target != "predict" || e.TotalS <= 0 {
			t.Errorf("event %d incomplete: id=%q target=%q total=%g", e.Seq, e.ID, e.Target, e.TotalS)
		}
		// The acceptance bar is 1%; the lap construction closes the books
		// to float rounding, so hold it far tighter here.
		if gap := math.Abs(e.TotalS - e.StageSum()); gap > 1e-9+0.0001*e.TotalS {
			t.Errorf("event %d stages sum to %.9f, total %.9f (gap %.2e)", e.Seq, e.StageSum(), e.TotalS, gap)
		}
	}
}

// TestCoalescedEventNamesLeader storms one fresh entry through an
// event-logging server and checks that every store-touching event is the
// one leader plus hits/coalesced riders naming that leader.
func TestCoalescedEventNamesLeader(t *testing.T) {
	log := obs.NewEventLog(nil, 64)
	_, ts := newTestServer(t, Config{Suite: quickVariant(), MaxInFlight: 32, Events: log})

	const k = 8
	body := `{"kernel":"ft","n":4,"f":1400}`
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			errs <- err
		}()
	}
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	var leaders, coalesced, hits int
	var leaderID string
	for _, e := range log.Snapshot() {
		switch e.Cache {
		case "miss":
			leaders++
			leaderID = e.ID
		case "coalesced":
			coalesced++
			if e.Leader == "" {
				t.Errorf("coalesced event %s names no leader", e.ID)
			}
		case "hit":
			hits++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want exactly 1 (hits %d, coalesced %d)", leaders, hits, coalesced)
	}
	if leaders+coalesced+hits != k {
		t.Fatalf("dispositions sum to %d, want %d", leaders+coalesced+hits, k)
	}
	for _, e := range log.Snapshot() {
		if e.Cache == "coalesced" && e.Leader != leaderID {
			t.Errorf("coalesced event %s rode leader %q, want %q", e.ID, e.Leader, leaderID)
		}
	}
}

// TestTelemetryDisabledBitIdentity pins the nil-injector contract at the
// HTTP layer: response bodies are byte-identical whether or not the server
// records wide events and spans.
func TestTelemetryDisabledBitIdentity(t *testing.T) {
	suite := quickVariant()
	_, plain := newTestServer(t, Config{Suite: suite})
	log := obs.NewEventLog(nil, 8)
	_, wired := newTestServer(t, Config{Suite: suite, Events: log, Trace: obs.NewRecorder()})

	for _, req := range []struct{ path, body string }{
		{"/predict", `{"kernel":"ft","n":4,"f":1400}`},
		{"/sweep", `{"kernel":"ft"}`},
	} {
		_, a := post(t, plain, req.path, req.body)
		_, b := post(t, wired, req.path, req.body)
		if !bytes.Equal(a, b) {
			t.Errorf("%s bodies differ with telemetry on:\n%s\nvs\n%s", req.path, a, b)
		}
	}
	if log.Total() == 0 {
		t.Fatal("the wired server recorded nothing")
	}
}

// TestDisabledTelemetryAllocs pins the cache-hit request cost with
// telemetry disabled. The budget covers the whole net/http handler chain —
// the point is that adding the events/trace plumbing did not grow the
// disabled path beyond its historical envelope.
func TestDisabledTelemetryAllocs(t *testing.T) {
	srv, ts := newTestServer(t, Config{Suite: quickVariant()})
	body := `{"kernel":"ft","n":4,"f":1400}`
	if code, b := post(t, ts, "/predict", body); code != http.StatusOK {
		t.Fatalf("warm request: %d (%s)", code, b)
	}

	h := srv.Handler()
	run := func() {
		r := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("cache hit = %d", w.Code)
		}
	}
	run() // warm the campaign's fits and the instruments
	const budget = 120
	if avg := testing.AllocsPerRun(50, run); avg > budget {
		t.Errorf("cache-hit request allocates %.1f times, budget %d", avg, budget)
	}
}

// TestUnknownKernelAllocs pins the cost of a 404 for an unknown kernel:
// the error lists Suite.KernelNames, which builds no kernel table.
// Rebuilding the table renders eight %+v strings of the paper suite's
// classes and platform per request.
func TestUnknownKernelAllocs(t *testing.T) {
	srv := New(Config{Suite: experiments.Paper(), Registry: obs.NewRegistry()})
	h := srv.Handler()
	run := func() {
		r := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"kernel":"zz","n":4,"f":1400}`))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusNotFound {
			t.Fatalf("unknown kernel = %d", w.Code)
		}
	}
	run()
	const budget = 80
	if avg := testing.AllocsPerRun(50, run); avg > budget {
		t.Errorf("unknown-kernel request allocates %.1f times, budget %d", avg, budget)
	}
}

// TestDebugRequestsEndpoint pins /debug/requests: 404 without an event
// log; with one, the text view lists the retained events and the JSON view
// returns the canonical event objects.
func TestDebugRequestsEndpoint(t *testing.T) {
	_, bare := newTestServer(t, Config{Suite: experiments.Quick()})
	resp, err := http.Get(bare.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("without an event log: %d, want 404", resp.StatusCode)
	}

	log := obs.NewEventLog(nil, 4)
	_, ts := newTestServer(t, Config{Suite: experiments.Quick(), Events: log})
	for i := 0; i < 6; i++ {
		if _, err := http.Get(ts.URL + "/healthz"); err != nil {
			t.Fatal(err)
		}
	}
	resp, err = http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "target=healthz") || !strings.Contains(string(text), "dominant=") {
		t.Fatalf("text view missing fields:\n%s", text)
	}

	resp, err = http.Get(ts.URL + "/debug/requests?format=json")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var events []obs.Event
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("JSON view does not parse: %v\n%s", err, data)
	}
	// 6 healthz hits plus the text-view scrape, ring capacity 4.
	if len(events) != 4 {
		t.Fatalf("JSON view has %d events, want the ring's 4", len(events))
	}
	for _, e := range events {
		if e.Target != "healthz" && e.Target != "debug.requests" {
			t.Errorf("unexpected target %q in ring", e.Target)
		}
	}
}

// TestRetryAfterFallsBackWhenUnmeasured pins the adaptive hint's fallback:
// a server that has never led a flight answers 429 with Retry-After 1.
func TestRetryAfterFallsBackWhenUnmeasured(t *testing.T) {
	srv, ts := newTestServer(t, Config{Suite: quickVariant(), MaxInFlight: 1})
	srv.slots <- struct{}{} // hold the only slot; no flight has ever run
	resp, err := http.Post(ts.URL+"/predict", "application/json",
		strings.NewReader(`{"kernel":"ft","n":4,"f":1400}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full house = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want the fallback 1", ra)
	}
	srv.release()
}

// TestRequestSpansNestCampaigns wires a trace recorder and checks the span
// topology: one request span per request, with the campaign span of the
// simulation the miss triggered parented under the miss's request span and
// tagged with its request ID.
func TestRequestSpansNestCampaigns(t *testing.T) {
	rec := obs.NewRecorder()
	prev := obs.SetGlobal(rec)
	defer obs.SetGlobal(prev)

	_, ts := newTestServer(t, Config{Suite: quickVariant(), Trace: rec})
	body := `{"kernel":"ft","n":4,"f":1400}`
	if code, b := post(t, ts, "/predict", body); code != http.StatusOK {
		t.Fatalf("miss request: %d (%s)", code, b)
	}
	if code, b := post(t, ts, "/predict", body); code != http.StatusOK {
		t.Fatalf("hit request: %d (%s)", code, b)
	}

	spans := rec.Spans()
	var reqSpans, campSpans []obs.Span
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "req:predict"):
			reqSpans = append(reqSpans, s)
		case strings.HasPrefix(s.Name, "campaign:"):
			campSpans = append(campSpans, s)
		}
	}
	if len(reqSpans) != 2 || len(campSpans) != 1 {
		t.Fatalf("spans: %d request, %d campaign — want 2 and 1", len(reqSpans), len(campSpans))
	}
	camp := campSpans[0]
	if camp.Parent != reqSpans[0].ID {
		t.Errorf("campaign span parent = %d, want the miss request span %d", camp.Parent, reqSpans[0].ID)
	}
	var reqID, campReqID string
	for _, a := range reqSpans[0].Attrs {
		if a.Key == "request_id" {
			reqID = a.Value
		}
	}
	for _, a := range camp.Attrs {
		if a.Key == "request_id" {
			campReqID = a.Value
		}
	}
	if reqID == "" || campReqID != reqID {
		t.Errorf("campaign request_id = %q, want the leader's %q", campReqID, reqID)
	}

	// The exported trace must survive the nesting rebase and validate.
	data := obs.SpansChromeTrace(obs.NestSpans(spans), "test")
	if _, err := obs.ValidateChromeTrace(data); err != nil {
		t.Errorf("nested trace invalid: %v", err)
	}
}

// TestLoadHarnessRequestIDs pins the harness-side ID assertions: an
// echoing server (the real one) yields zero mismatches and duplicates; a
// server that ignores or reuses IDs is caught.
func TestLoadHarnessRequestIDs(t *testing.T) {
	_, ts := newTestServer(t, Config{Suite: experiments.Quick()})
	cfg := LoadConfig{
		BaseURL:  ts.URL,
		QPS:      200,
		Duration: 100 * time.Millisecond,
		Seed:     3,
		Targets:  []Target{{Name: "healthz", Method: http.MethodGet, Path: "/healthz", Weight: 1}},
	}
	rep, err := RunLoad(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IDMismatches != 0 || rep.IDDuplicates != 0 {
		t.Fatalf("echoing server: %d mismatches, %d duplicates — want 0, 0",
			rep.IDMismatches, rep.IDDuplicates)
	}

	rogue := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-ID", "same-every-time")
		w.Write([]byte("ok"))
	}))
	defer rogue.Close()
	cfg.BaseURL = rogue.URL
	rep, err = RunLoad(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IDMismatches != rep.Requests {
		t.Fatalf("rogue server: %d mismatches, want all %d", rep.IDMismatches, rep.Requests)
	}
	if rep.IDDuplicates != 1 {
		t.Fatalf("rogue server: %d duplicated ids, want 1", rep.IDDuplicates)
	}
}

// TestLoadRequestIDDeterminism pins that request IDs are a pure function
// of (seed, index) and distinct from each other.
func TestLoadRequestIDDeterminism(t *testing.T) {
	seen := map[string]bool{}
	for i := uint64(0); i < 64; i++ {
		id := loadRequestID(5, i)
		if id != loadRequestID(5, i) {
			t.Fatalf("id %d not deterministic", i)
		}
		if !validRequestID(id) {
			t.Fatalf("id %q is not a valid request ID", id)
		}
		if seen[id] {
			t.Fatalf("id %q repeats within one schedule", id)
		}
		seen[id] = true
	}
	// Different seeds must give disjoint streams, not permutations of one
	// shared stream — serve-smoke runs two phases with seeds 1 and 2 and
	// pastat -strict treats any repeated ID as a finding.
	first := map[string]bool{}
	for i := uint64(0); i < 5000; i++ {
		first[loadRequestID(1, i)] = true
	}
	for i := uint64(0); i < 5000; i++ {
		if id := loadRequestID(2, i); first[id] {
			t.Fatalf("seed 2 index %d repeats a seed-1 id (%s)", i, id)
		}
	}
}
