package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pasp/internal/experiments"
	"pasp/internal/obs"
)

// fuzzHandler lazily builds one warmed quick-suite server shared by every
// fuzz execution: FT is pre-measured so the valid seed inputs answer from
// the peek path and the fuzzer spends its time on the decode boundary, not
// on simulations.
var fuzzHandler = sync.OnceValue(func() http.Handler {
	s := experiments.Quick()
	if _, err := s.MeasureKernel(context.Background(), "ft"); err != nil {
		panic(err)
	}
	srv := New(Config{Suite: s, SuiteName: "quick", MaxInFlight: 2, Registry: obs.NewRegistry()})
	return srv.Handler()
})

// FuzzPredictRequest pins the input-boundary contract of POST /predict:
// any body whatsoever is answered — malformed JSON, NaN/Inf/negative
// numbers, unknown fields, trailing garbage, huge payloads — and the
// answer is never a 5xx and never a panic. Bad inputs map to 400 (shape),
// 404 (unknown kernel / off-grid cell) or 413-as-400 (oversized).
func FuzzPredictRequest(f *testing.F) {
	seeds := []string{
		`{"kernel":"ft","n":4,"f":1400}`,
		`{"kernel":"ft","n":4,"f":"1.4ghz"}`,
		`{"kernel":"ep","n":1,"f":"600mhz"}`,
		`{"kernel":"ft","n":-1,"f":1400}`,
		`{"kernel":"ft","n":4,"f":-600}`,
		`{"kernel":"ft","n":4,"f":0}`,
		`{"kernel":"ft","n":4,"f":NaN}`,
		`{"kernel":"ft","n":4,"f":"nan"}`,
		`{"kernel":"ft","n":4,"f":"+inf"}`,
		`{"kernel":"ft","n":4,"f":1e309}`,
		`{"kernel":"ft","n":99999999,"f":1400}`,
		`{"kernel":"zz","n":4,"f":1400}`,
		`{"kernel":"ft","n":4,"f":1400,"extra":true}`,
		`{"kernel":"ft","n":4,"f":1400}{"kernel":"ft"}`,
		`{"kernel":"ft","n":4.5,"f":1400}`,
		`[1,2,3]`,
		`null`,
		`"ft"`,
		``,
		`}{`,
		"\x00\xff\xfe",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, "/predict", body)
	})
}

// fuzzPost sends body to path on the shared handler and checks the
// contract every endpoint keeps: never a panic, never a 5xx, and every
// non-200 answer carries an error payload. A 429 from the two-slot
// admission is a client error like any other 4xx.
func fuzzPost(t *testing.T, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	fuzzHandler().ServeHTTP(rec, req)
	if rec.Code >= 500 {
		t.Fatalf("%s body %q answered %d:\n%s", path, body, rec.Code, rec.Body.Bytes())
	}
	if rec.Code != http.StatusOK && rec.Body.Len() == 0 {
		t.Fatalf("%s body %q answered %d with an empty error payload", path, body, rec.Code)
	}
	return rec
}

// FuzzSweepRequest pins the same contract on POST /sweep.
func FuzzSweepRequest(f *testing.F) {
	for _, s := range []string{
		`{"kernel":"ft"}`,
		`{"kernel":"ep"}`,
		`{"kernel":""}`,
		`{"kernel":"zz"}`,
		`{"kernel":"FT"}`,
		`{"kernel":NaN}`,
		`{"kernel":1e309}`,
		`{"kernel":-1}`,
		`{"kernel":"ft","n":4}`,
		`{"kernel":"ft"}{"kernel":"ft"}`,
		`[1,2,3]`,
		`null`,
		`{}`,
		``,
		`}{`,
		"\x00\xff\xfe",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, "/sweep", body)
	})
}

// FuzzRobustnessRequest pins the contract on POST /robustness, plus the
// shape of a 200: at most 16 magnitudes (the spec's bound, so one request
// cannot buy an unbounded number of sweeps) and every matrix indexed
// [magnitude][n].
func FuzzRobustnessRequest(f *testing.F) {
	for _, s := range []string{
		`{"kernel":"ft","ns":[2,4],"magnitudes":[0,1],"seed":7}`,
		`{"kernel":"ft","ns":[1,2,4],"magnitudes":[0,0.5,1],"chaos":"seed=1,jitter=1"}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[0,1],"chaos":"seed=1,drop=0.5,retries=3,timeout=1ms"}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[0,1],"chaos":"seed=1,slowdown=1e308,straggler=1"}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[0,1e300],"chaos":"seed=1,jitter=1"}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[0,1e308],"chaos":"seed=1,jitter=2"}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[NaN]}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[-1,0]}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[1e309]}`,
		`{"kernel":"ft","ns":[-2],"magnitudes":[0,1]}`,
		`{"kernel":"ft","ns":[99999999],"magnitudes":[0,1]}`,
		`{"kernel":"ft","ns":[3],"magnitudes":[0,1]}`,
		`{"kernel":"ft","ns":[4,2],"magnitudes":[0,1]}`,
		`{"kernel":"ft","ns":[2,2],"magnitudes":[0,1]}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[1,0]}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[1,1]}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[0,1],"chaos":"zap=1"}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[0,1],"chaos":"drop=2"}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[0,1],"chaos":"jitter=nan"}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[0,1],"chaos":"seed=-1"}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[0,1],"chaos":",,="}`,
		`{"kernel":"zz","ns":[2],"magnitudes":[0,1]}`,
		`{"kernel":"ft","ns":[],"magnitudes":[]}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[0,1],"extra":true}`,
		`{"kernel":"ft","ns":[2],"magnitudes":[0,1]}{}`,
		`null`,
		``,
		"\x00\xff\xfe",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := fuzzPost(t, "/robustness", body)
		if rec.Code != http.StatusOK {
			return
		}
		var resp RobustnessResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: 200 answer does not decode: %v", body, err)
		}
		if len(resp.Magnitudes) > 16 {
			t.Fatalf("body %q: 200 answer sweeps %d magnitudes, bound 16", body, len(resp.Magnitudes))
		}
		for _, rows := range []int{len(resp.MeasSec), len(resp.SPErr), len(resp.FPErr), len(resp.FaultSec), len(resp.Retries)} {
			if rows != len(resp.Magnitudes) {
				t.Fatalf("body %q: matrix has %d rows, want %d", body, rows, len(resp.Magnitudes))
			}
		}
		for m := range resp.Magnitudes {
			for _, cols := range []int{len(resp.MeasSec[m]), len(resp.SPErr[m]), len(resp.FPErr[m]), len(resp.FaultSec[m]), len(resp.Retries[m])} {
				if cols != len(resp.Ns) {
					t.Fatalf("body %q: magnitude %d has %d columns, want %d", body, m, cols, len(resp.Ns))
				}
			}
		}
	})
}

// FuzzTraceRequest pins the contract on POST /trace, whose run takes any
// (n, f) the platform supports and an optional chaos spec.
func FuzzTraceRequest(f *testing.F) {
	for _, s := range []string{
		`{"kernel":"ft","n":2,"f":1000}`,
		`{"kernel":"ep","n":1,"f":"600mhz"}`,
		`{"kernel":"ft","n":4,"f":"1.4ghz","chaos":"seed=1,jitter=0.5"}`,
		`{"kernel":"ft","n":2,"f":1000,"chaos":"seed=1,drop=0.5,retries=3,timeout=1ms"}`,
		`{"kernel":"ft","n":2,"f":1000,"chaos":"seed=1,jitter=1e308"}`,
		`{"kernel":"ft","n":2,"f":1000,"chaos":"seed=1,slowdown=1e308,straggler=1"}`,
		`{"kernel":"ft","n":2,"f":1000,"chaos":"zap=1"}`,
		`{"kernel":"ft","n":2,"f":1000,"chaos":"jitter=-1"}`,
		`{"kernel":"ft","n":0,"f":1000}`,
		`{"kernel":"ft","n":-1,"f":1000}`,
		`{"kernel":"ft","n":100000,"f":1000}`,
		`{"kernel":"ft","n":3,"f":1000}`,
		`{"kernel":"ft","n":2,"f":1001}`,
		`{"kernel":"ft","n":2,"f":NaN}`,
		`{"kernel":"ft","n":2,"f":"+inf"}`,
		`{"kernel":"ft","n":2,"f":1e309}`,
		`{"kernel":"zz","n":2,"f":1000}`,
		`{"kernel":"ft","n":2,"f":1000,"extra":true}`,
		`{"kernel":"ft","n":2,"f":1000}{}`,
		`null`,
		``,
		"\x00\xff\xfe",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, "/trace", body)
	})
}

// FuzzParseGear pins ParseGear's contract: it never panics, and whenever
// it accepts an input the result is finite and strictly positive — the
// property that keeps non-physical frequencies out of the model layer.
func FuzzParseGear(f *testing.F) {
	for _, s := range []string{
		"1400", "1400mhz", "1.4ghz", " 1.4 GHz ", "0.6ghz", "600",
		"", " ", "mhz", "ghz", "-1", "0", "nan", "inf", "-inf", "1e309",
		"1,400", "fast", "1400mhz extra", "0x10", "１４００",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseGear(s)
		if err != nil {
			return
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Fatalf("ParseGear(%q) accepted non-physical %v", s, v)
		}
	})
}
