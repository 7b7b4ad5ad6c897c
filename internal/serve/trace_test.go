package serve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pasp/internal/cluster"
	"pasp/internal/experiments"
	"pasp/internal/mpi"
	"pasp/internal/obs"
)

// traceBodiesGolden pins the /trace answers of the quick suite.
var traceBodiesGolden = filepath.Join("testdata", "trace_bodies.golden")

// fullMixKnobs is every chaos knob at once, as a chaos spec without its
// seed; traceMix adds seed 1.
const (
	fullMixKnobs = "jitter=0.5,drop=0.01,degradeprob=0.05,degradefactor=2,straggler=0.1,slowdown=1.5"
	traceMix     = "seed=1," + fullMixKnobs
)

// TestTraceBodiesGolden pins the /trace body of every quick-suite kernel
// at N ∈ {2, 4}, at its base and top gear, clean and under traceMix: the
// status and SHA-256 of each. Each configuration is sent twice, and both
// answers must agree. The file was written while every /trace ran its
// kernel directly; the requests go in a fixed order, so that with the
// tape cache all but the first request per (kernel, N) are replays.
// Regenerate with PASP_UPDATE_GOLDEN=1.
func TestTraceBodiesGolden(t *testing.T) {
	s := experiments.Quick()
	h := New(Config{Suite: s, SuiteName: "quick", Registry: obs.NewRegistry()}).Handler()
	var buf bytes.Buffer
	for _, name := range s.KernelNames() {
		k, err := s.Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		gears := []float64{k.Grid.MHz[0], k.Grid.MHz[len(k.Grid.MHz)-1]}
		for _, n := range []int{2, 4} {
			for _, f := range gears {
				for _, chaos := range []string{"", traceMix} {
					key := fmt.Sprintf("trace %s n=%d f=%g chaos=%q", name, n, f, chaos)
					body := fmt.Sprintf(`{"kernel":%q,"n":%d,"f":%g,"chaos":%q}`, name, n, f, chaos)
					first := serveBody(h, "/trace", body)
					again := serveBody(h, "/trace", body)
					if again.Code != first.Code || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
						t.Errorf("%s: the second request answered %d (%d bytes), the first %d (%d bytes)",
							key, again.Code, again.Body.Len(), first.Code, first.Body.Len())
					}
					fmt.Fprintf(&buf, "%s %d %x\n", key, first.Code, sha256.Sum256(first.Body.Bytes()))
				}
			}
		}
	}
	if updateGolden {
		if err := os.WriteFile(traceBodiesGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(traceBodiesGolden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with PASP_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace bodies drifted from %s\ngot:\n%swant:\n%s", traceBodiesGolden, buf.Bytes(), want)
	}
}

// barrierTape records two ranks issuing k barriers: 2k operations.
func barrierTape(t *testing.T, k int) *mpi.Recording {
	t.Helper()
	w, err := cluster.PentiumM().World(2, 600)
	if err != nil {
		t.Fatal(err)
	}
	w.Record = mpi.NewRecording()
	if _, err := mpi.Run(w, func(c *mpi.Ctx) error {
		for i := 0; i < k; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return w.Record
}

// TestTapeCacheBound feeds the tape cache synthetic tapes of half its
// budget each: the kept operations never exceed maxTapeOps, the third tape
// evicts the first, and a tape over the whole budget is not kept and
// evicts nothing.
func TestTapeCacheBound(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTapeCache(reg)
	half := barrierTape(t, maxTapeOps/4)
	if got := tapeOps(half); got != maxTapeOps/2 {
		t.Fatalf("two ranks issuing %d barriers recorded %d ops, want %d", maxTapeOps/4, got, maxTapeOps/2)
	}
	keys := []tapeKey{{"a", 2}, {"b", 2}, {"c", 2}}
	for _, k := range keys {
		c.put(k, half)
		if g := reg.Gauge("serve.trace.tape_ops").Value(); c.ops > maxTapeOps || g != float64(c.ops) {
			t.Fatalf("after keeping %v: %d ops kept (gauge %g), budget %d", k, c.ops, g, maxTapeOps)
		}
	}
	if c.get(keys[0]) != nil {
		t.Error("the oldest tape was kept past the budget")
	}
	if c.get(keys[1]) == nil || c.get(keys[2]) == nil {
		t.Error("a tape that fits beside the newest one was evicted")
	}
	big := tapeKey{"big", 2}
	c.put(big, barrierTape(t, maxTapeOps/2+1))
	if c.get(big) != nil {
		t.Error("a tape over the whole budget was kept")
	}
	if c.get(keys[1]) == nil || c.get(keys[2]) == nil || c.ops != maxTapeOps {
		t.Errorf("an over-budget tape evicted kept tapes: %d ops kept", c.ops)
	}
}

// TestTraceReplaysKeptTape: the first /trace of a (kernel, N) runs the
// kernel and keeps its tape; the second, under another seed and gear,
// replays it.
func TestTraceReplaysKeptTape(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Suite: experiments.Quick(), Registry: reg})
	for i, tc := range []struct {
		body    string
		replays float64
	}{
		{`{"kernel":"ft","n":4,"f":1400,"chaos":"seed=1,jitter=0.5"}`, 0},
		{`{"kernel":"ft","n":4,"f":600,"chaos":"seed=2,jitter=0.5"}`, 1},
		{`{"kernel":"ft","n":2,"f":600,"chaos":"seed=2,jitter=0.5"}`, 1},
	} {
		if code, body := post(t, ts, "/trace", tc.body); code != http.StatusOK {
			t.Fatalf("request %d: %d (%s)", i, code, body)
		}
		if got := reg.Counter("serve.trace.replays").Value(); got != tc.replays {
			t.Errorf("after request %d: serve.trace.replays = %g, want %g", i, got, tc.replays)
		}
	}
	// The quick FT tapes at N = 4 and 2 hold 160 and 80 ops.
	if got := reg.Gauge("serve.trace.tape_ops").Value(); got != 240 {
		t.Errorf("serve.trace.tape_ops = %g, want 240", got)
	}
}

// TestTraceConcurrentReplays sends four /trace requests that replay one
// kept tape at once: they answer the bodies the same requests answer one
// at a time. Run it under -race.
func TestTraceConcurrentReplays(t *testing.T) {
	reg := obs.NewRegistry()
	h := New(Config{Suite: experiments.Quick(), Registry: reg, MaxInFlight: 4}).Handler()
	if w := serveBody(h, "/trace", `{"kernel":"cg","n":4,"f":1000}`); w.Code != http.StatusOK {
		t.Fatalf("recording request: %d (%s)", w.Code, w.Body)
	}
	var reqs [4]string
	var want [4][]byte
	for i := range reqs {
		reqs[i] = fmt.Sprintf(`{"kernel":"cg","n":4,"f":%d,"chaos":"seed=%d,%s"}`, []int{600, 1400}[i%2], i+2, fullMixKnobs)
		w := serveBody(h, "/trace", reqs[i])
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: %d (%s)", i, w.Code, w.Body)
		}
		want[i] = w.Body.Bytes()
	}
	var got [4]*httptest.ResponseRecorder
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = serveBody(h, "/trace", reqs[i])
		}(i)
	}
	wg.Wait()
	for i, w := range got {
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want[i]) {
			t.Errorf("concurrent request %d answered %d (%d bytes), sequentially %d bytes", i, w.Code, w.Body.Len(), len(want[i]))
		}
	}
	if n := reg.Counter("serve.trace.replays").Value(); n != float64(2*len(reqs)) {
		t.Errorf("serve.trace.replays = %g, want %d", n, 2*len(reqs))
	}
}
