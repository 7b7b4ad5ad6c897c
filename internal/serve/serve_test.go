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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pasp/internal/experiments"
	"pasp/internal/obs"
)

// variantSeq numbers quickVariant calls so every invocation gets its own
// campaign-store identity — also across `go test -count=2`, where a fixed
// tag would find the first pass's memoized campaign and break the
// fresh-entry assumptions (storm counting, admission, cancellation).
var variantSeq atomic.Int64

// quickVariant returns the quick suite with an invocation-unique platform
// fingerprint (MaxNodes is far above the grid, so the semantics do not
// change). The campaign store is process-wide and content-keyed, so each
// test that needs *fresh* store entries must use a platform nothing else
// measures — and a unique platform makes every kernel of the suite fresh.
func quickVariant() experiments.Suite {
	s := experiments.Quick()
	s.Platform.MaxNodes = 1000 + int(variantSeq.Add(1))
	return s
}

// newTestServer builds a Server on its own metric registry (the store's
// counters stay on obs.Default regardless) and mounts it on httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// post sends body to path and returns the status and response body.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func TestPredictValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Suite: experiments.Quick(), SuiteName: "quick"})
	cases := []struct {
		name, body string
		want       int
	}{
		{"empty", ``, http.StatusBadRequest},
		{"not json", `}{`, http.StatusBadRequest},
		{"unknown field", `{"kernel":"ft","n":4,"f":1400,"x":1}`, http.StatusBadRequest},
		{"trailing data", `{"kernel":"ft","n":4,"f":1400} true`, http.StatusBadRequest},
		{"no kernel", `{"n":4,"f":1400}`, http.StatusBadRequest},
		{"no n", `{"kernel":"ft","f":1400}`, http.StatusBadRequest},
		{"negative n", `{"kernel":"ft","n":-4,"f":1400}`, http.StatusBadRequest},
		{"no f", `{"kernel":"ft","n":4}`, http.StatusBadRequest},
		{"zero f", `{"kernel":"ft","n":4,"f":0}`, http.StatusBadRequest},
		{"negative f", `{"kernel":"ft","n":4,"f":-600}`, http.StatusBadRequest},
		{"null f", `{"kernel":"ft","n":4,"f":null}`, http.StatusBadRequest},
		{"nan f", `{"kernel":"ft","n":4,"f":NaN}`, http.StatusBadRequest},
		{"string nan f", `{"kernel":"ft","n":4,"f":"nan"}`, http.StatusBadRequest},
		{"inf f", `{"kernel":"ft","n":4,"f":"inf"}`, http.StatusBadRequest},
		{"garbage f", `{"kernel":"ft","n":4,"f":"fast"}`, http.StatusBadRequest},
		{"unknown kernel", `{"kernel":"zz","n":4,"f":1400}`, http.StatusNotFound},
		{"off-grid n", `{"kernel":"ft","n":3,"f":1400}`, http.StatusNotFound},
		{"off-grid f", `{"kernel":"ft","n":4,"f":1234}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := post(t, ts, "/predict", tc.body)
			if code != tc.want {
				t.Fatalf("status = %d, want %d (body %s)", code, tc.want, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Fatalf("error body %q is not the uniform error payload", body)
			}
		})
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{Suite: experiments.Quick()})
	resp, err := http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q, want POST", allow)
	}
}

func TestBodyByteCap(t *testing.T) {
	_, ts := newTestServer(t, Config{Suite: experiments.Quick(), MaxBodyBytes: 64})
	big := fmt.Sprintf(`{"kernel":"ft","n":4,"f":1400,"pad":%q}`, strings.Repeat("x", 256))
	code, body := post(t, ts, "/predict", big)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized body = %d (%s), want 400", code, body)
	}
	if !bytes.Contains(body, []byte("over 64 bytes")) {
		t.Fatalf("error %s does not mention the byte cap", body)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Suite: experiments.Quick(), SuiteName: "quick"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if want := `{"status":"ok","suite":"quick"}` + "\n"; string(data) != want {
		t.Fatalf("healthz = %q, want %q", data, want)
	}
}

func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Suite: experiments.Quick(), Registry: reg})
	if _, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(text, []byte("counter serve.healthz.requests 1")) {
		t.Fatalf("text metrics missing the healthz request count:\n%s", text)
	}
	resp2, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp2.Body).Decode(&snap); err != nil {
		t.Fatalf("JSON metrics do not decode as a snapshot: %v", err)
	}
	if snap.Counter("serve.healthz.requests") < 1 {
		t.Fatal("JSON metrics missing the healthz request count")
	}
}

// TestStormCoalesces pins the tentpole concurrency claim: k identical
// concurrent /predict requests for an unmeasured kernel cost exactly one
// campaign measurement. The store's counters are the witness — one miss
// (the leader), and every other request either coalesces onto the flight
// (a store hit) or, if it arrives after completion, answers from the
// admission-free peek path. Either way: k requests, one simulation.
func TestStormCoalesces(t *testing.T) {
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, Config{Suite: quickVariant(), MaxInFlight: 64, Registry: reg})
	const k = 16
	before := obs.Default().Snapshot()

	body := `{"kernel":"ft","n":4,"f":1400}`
	codes := make([]int, k)
	bodies := make([][]byte, k)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	close(start)
	wg.Wait()

	delta := obs.Default().Snapshot().Delta(before)
	misses := delta.Counter("store.misses")
	hits := delta.Counter("store.hits")
	peeks := reg.Counter("serve.predict.cache_hits").Value()
	if misses != 1 {
		t.Errorf("store.misses delta = %g, want exactly 1 (one simulation for %d requests)", misses, k)
	}
	if hits+peeks != k-1 {
		t.Errorf("store.hits (%g) + peek hits (%g) = %g, want %d", hits, peeks, hits+peeks, k-1)
	}
	for i := range codes {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d answered different bytes than request 0", i)
		}
	}
	if got := srv.reg.Counter("serve.predict.requests").Value(); got != k {
		t.Errorf("serve.predict.requests = %g, want %d", got, k)
	}
}

// TestAdmissionFullHouse pins the 429 contract: with every slot held,
// simulating requests bounce with Retry-After while peek-served cache hits
// keep flowing; freeing a slot readmits.
func TestAdmissionFullHouse(t *testing.T) {
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, Config{Suite: quickVariant(), MaxInFlight: 2, Registry: reg})

	// Measure FT through the server first so it peeks afterwards.
	if code, body := post(t, ts, "/predict", `{"kernel":"ft","n":4,"f":1400}`); code != http.StatusOK {
		t.Fatalf("warm request: %d (%s)", code, body)
	}

	srv.slots <- struct{}{} // hold both admission slots
	srv.slots <- struct{}{}

	resp, err := http.Post(ts.URL+"/predict", "application/json",
		strings.NewReader(`{"kernel":"ep","n":4,"f":1400}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full house = %d (%s), want 429", resp.StatusCode, body)
	}
	// The warm request led a flight, so the hint is adaptive: ceil of the
	// median led-flight duration, at least 1 s — not the fallback
	// (TestRetryAfterFallsBackWhenUnmeasured pins that case).
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if want, ok := reg.Histogram("serve.flight.seconds", nil).Quantile(0.5); !ok {
		t.Fatal("warm flight was not observed in serve.flight.seconds")
	} else if expect := int(math.Ceil(want)); ra != expect && !(want < 1 && ra == 1) {
		t.Fatalf("Retry-After = %d, want ceil(median flight) = %d", ra, expect)
	}
	if got := reg.Counter("serve.rejected").Value(); got != 1 {
		t.Fatalf("serve.rejected = %g, want 1", got)
	}
	// Cache hits are not admission-controlled.
	if code, body := post(t, ts, "/predict", `{"kernel":"ft","n":4,"f":1400}`); code != http.StatusOK {
		t.Fatalf("cache hit under full house: %d (%s), want 200", code, body)
	}
	// A freed slot readmits.
	srv.release()
	if code, body := post(t, ts, "/predict", `{"kernel":"ep","n":4,"f":1400}`); code != http.StatusOK {
		t.Fatalf("after release: %d (%s), want 200", code, body)
	}
	srv.release()
}

// TestCancelledRequestReleasesSlot pins the drain property: a client that
// goes away mid-measurement frees its admission slot, the abandoned sweep
// is not cached, and the next request re-measures successfully.
func TestCancelledRequestReleasesSlot(t *testing.T) {
	srv, ts := newTestServer(t, Config{Suite: quickVariant(), MaxInFlight: 1})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/predict",
		strings.NewReader(`{"kernel":"ft","n":4,"f":1400}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	// Give the handler a moment to take the slot, then pull the plug.
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled request unexpectedly completed")
	}

	// The slot must come back; the handler releases it on its way out.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.slots) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("admission slot still held %d ms after cancellation", 5000)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The abandoned measurement was not cached: a fresh request re-measures
	// and succeeds on the single remaining slot.
	if code, body := post(t, ts, "/predict", `{"kernel":"ft","n":4,"f":1400}`); code != http.StatusOK {
		t.Fatalf("post-cancellation request: %d (%s), want 200", code, body)
	}
}

func TestSweepRowsInSweepOrder(t *testing.T) {
	s := experiments.Quick()
	_, ts := newTestServer(t, Config{Suite: s})
	code, body := post(t, ts, "/sweep", `{"kernel":"ep"}`)
	if code != http.StatusOK {
		t.Fatalf("sweep: %d (%s)", code, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if want := len(s.Grid.Ns) * len(s.Grid.MHz); len(resp.Rows) != want {
		t.Fatalf("sweep has %d rows, want %d", len(resp.Rows), want)
	}
	i := 0
	for _, n := range s.Grid.Ns {
		for _, f := range s.Grid.MHz {
			if resp.Rows[i].N != n || resp.Rows[i].MHz != f {
				t.Fatalf("row %d is (N=%d, f=%g), want (N=%d, f=%g) — not sweep order",
					i, resp.Rows[i].N, resp.Rows[i].MHz, n, f)
			}
			i++
		}
	}
}

func TestTraceEndpointServesValidPerfetto(t *testing.T) {
	_, ts := newTestServer(t, Config{Suite: experiments.Quick()})
	code, body := post(t, ts, "/trace", `{"kernel":"ft","n":2,"f":1000}`)
	if code != http.StatusOK {
		t.Fatalf("trace: %d (%s)", code, body)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace body is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	// An impossible configuration is the client's fault, not a 500.
	if code, _ := post(t, ts, "/trace", `{"kernel":"ft","n":100000,"f":1000}`); code != http.StatusBadRequest {
		t.Fatalf("impossible trace config: %d, want 400", code)
	}
	// So is a retry bound past 63: it would let one dropped message cost
	// unbounded PRNG draws while the request holds an admission slot.
	if code, body := post(t, ts, "/trace", `{"kernel":"ft","n":2,"f":1000,"chaos":"seed=1,drop=1,retries=64"}`); code != http.StatusBadRequest {
		t.Fatalf("retries=64 trace: %d (%s), want 400", code, body)
	}
}

func TestRobustnessEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Suite: experiments.Quick()})
	code, body := post(t, ts, "/robustness",
		`{"kernel":"ft","ns":[2,4],"magnitudes":[0,1],"seed":7}`)
	if code != http.StatusOK {
		t.Fatalf("robustness: %d (%s)", code, body)
	}
	var resp RobustnessResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.SPErr) != 2 || len(resp.SPErr[0]) != 2 {
		t.Fatalf("SPErr shape %dx%d, want 2x2", len(resp.SPErr), len(resp.SPErr[0]))
	}
	// Magnitude 0 is the control row: the clean fit is exact at the base
	// frequency, so the SP error must be identically zero.
	if resp.SPErr[0][0] != 0 || resp.SPErr[0][1] != 0 {
		t.Fatalf("control-row SP error %v, want zeros", resp.SPErr[0])
	}
	// Client-chosen seeds never key store entries: /robustness perturbs
	// fresh runs around the clean campaign and /trace runs once, so only
	// the clean campaign above is stored.
	stored := experiments.CampaignStoreSize()
	for seed := 101; seed <= 103; seed++ {
		if code, body := post(t, ts, "/robustness",
			fmt.Sprintf(`{"kernel":"ft","ns":[2],"magnitudes":[0,1],"seed":%d}`, seed)); code != http.StatusOK {
			t.Fatalf("robustness seed %d: %d (%s)", seed, code, body)
		}
		if code, body := post(t, ts, "/trace",
			fmt.Sprintf(`{"kernel":"ft","n":2,"f":1000,"chaos":"seed=%d,jitter=0.5"}`, seed)); code != http.StatusOK {
			t.Fatalf("trace seed %d: %d (%s)", seed, code, body)
		}
	}
	if got := experiments.CampaignStoreSize(); got != stored {
		t.Errorf("store holds %d campaigns after fresh-seed /robustness and /trace traffic, want %d", got, stored)
	}
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"off-grid n", `{"kernel":"ft","ns":[3],"magnitudes":[0,1]}`, http.StatusBadRequest},
		{"no magnitudes", `{"kernel":"ft","ns":[2]}`, http.StatusBadRequest},
		{"descending ns", `{"kernel":"ft","ns":[4,2,2,2,2],"magnitudes":[0,1]}`, http.StatusBadRequest},
		{"repeated ns", `{"kernel":"ft","ns":[2,4,4],"magnitudes":[0,1]}`, http.StatusBadRequest},
		{"magnitude overflows the knobs", `{"kernel":"ft","ns":[2],"magnitudes":[0,1e308],"chaos":"seed=1,jitter=2"}`, http.StatusBadRequest},
		// 1.7 × 1e308 is finite but far past the jitter ceiling; accepted,
		// it stretched an IS run to 2.39e307 s.
		{"magnitude past the jitter ceiling", `{"kernel":"is","ns":[4],"magnitudes":[0,1e308],"chaos":"seed=1,jitter=1.7"}`, http.StatusBadRequest},
		{"bad chaos", `{"kernel":"ft","ns":[2],"magnitudes":[0,1],"chaos":"zap=1"}`, http.StatusBadRequest},
		{"17 magnitudes", `{"kernel":"ft","ns":[2],"magnitudes":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}`, http.StatusBadRequest},
		{"unknown kernel", `{"kernel":"zz","ns":[2],"magnitudes":[0,1]}`, http.StatusNotFound},
	} {
		if code, body := post(t, ts, "/robustness", tc.body); code != tc.want {
			t.Fatalf("%s: %d (%s), want %d", tc.name, code, body, tc.want)
		}
	}
}
