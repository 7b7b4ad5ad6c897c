package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pasp/internal/experiments"
	"pasp/internal/obs"
)

// hitBodiesGolden pins the cache-hit answers of the quick suite.
var hitBodiesGolden = filepath.Join("testdata", "hit_bodies.golden")

// serveBody sends one request straight to h and returns the recorder.
func serveBody(h http.Handler, path, body string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestHitBodiesGolden pins every cache-hit body of the quick suite: the
// SHA-256 of the /predict answer of each grid cell and of the /sweep
// answer, for all seven kernels. The contract goldens cover /predict at
// paper scale only, and skip under -short; this one runs everywhere, so a
// body that drifts by one byte fails Tier-1. Each request is sent twice,
// and both answers must agree: the first may measure the campaign, the
// second is a hit. Regenerate with PASP_UPDATE_GOLDEN=1.
func TestHitBodiesGolden(t *testing.T) {
	s := experiments.Quick()
	h := New(Config{Suite: s, SuiteName: "quick", Registry: obs.NewRegistry()}).Handler()
	var buf bytes.Buffer
	check := func(key, path, body string) {
		first := serveBody(h, path, body)
		hit := serveBody(h, path, body)
		if hit.Code != first.Code || !bytes.Equal(hit.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("%s: the hit answered %d %q, the first request %d %q",
				key, hit.Code, hit.Body, first.Code, first.Body)
		}
		fmt.Fprintf(&buf, "%s %d %x\n", key, hit.Code, sha256.Sum256(hit.Body.Bytes()))
	}
	for _, name := range s.KernelNames() {
		k, err := s.Kernel(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range k.Grid.Ns {
			for _, f := range k.Grid.MHz {
				check(fmt.Sprintf("predict %s n=%d f=%g", name, n, f), "/predict",
					fmt.Sprintf(`{"kernel":%q,"n":%d,"f":%g}`, name, n, f))
			}
		}
		check("sweep "+name, "/sweep", fmt.Sprintf(`{"kernel":%q}`, name))
	}
	if updateGolden {
		if err := os.WriteFile(hitBodiesGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(hitBodiesGolden)
	if err != nil {
		t.Fatalf("missing golden (regenerate with PASP_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("hit bodies drifted from %s\ngot:\n%swant:\n%s", hitBodiesGolden, buf.Bytes(), want)
	}
}

// TestFirstHitsRenderOnce sends the first /predict and /sweep for a freshly
// measured campaign from eight goroutines at once, half of them asking for
// the sweep first: every answer of a path carries the same bytes, and the
// campaign renders once. Run it under -race -count=10 to shake the
// interleavings.
func TestFirstHitsRenderOnce(t *testing.T) {
	s := quickVariant()
	k, err := s.Kernel("ft")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Measure(context.Background()); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	h := New(Config{Suite: s, Registry: reg}).Handler()
	reqs := [2]struct{ path, body string }{
		{"/predict", `{"kernel":"ft","n":4,"f":1400}`},
		{"/sweep", `{"kernel":"ft"}`},
	}
	const callers = 8
	var got [callers][2]*httptest.ResponseRecorder
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for j := range reqs {
				p := (i + j) % len(reqs)
				got[i][p] = serveBody(h, reqs[p].path, reqs[p].body)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		for p, req := range reqs {
			if w := got[i][p]; w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), got[0][p].Body.Bytes()) {
				t.Errorf("caller %d: %s = %d %q, caller 0 got %q", i, req.path, w.Code, w.Body, got[0][p].Body)
			}
		}
	}
	if n := reg.Counter("serve.renders").Value(); n != 1 {
		t.Errorf("serve.renders = %g after %d concurrent first hits, want 1", n, 2*callers)
	}
}

// hitWriter is a ResponseWriter the caller owns and reuses, so that the
// allocations a benchmark counts are the server's: reset clears the header
// map instead of making a new one, and the body is discarded.
type hitWriter struct {
	h    http.Header
	code int
}

func (w *hitWriter) Header() http.Header  { return w.h }
func (w *hitWriter) WriteHeader(code int) { w.code = code }
func (w *hitWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(b), nil
}

func (w *hitWriter) reset() {
	clear(w.h)
	w.code = 0
}

// reusedBody is a request body the caller rewinds between requests.
type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

// BenchmarkServeHit times one cache hit through the whole handler chain,
// on the paper suite's FT campaign: predict answers one grid cell, sweep
// the whole grid. The request and ResponseWriter are the caller's and
// reused, so allocs/op counts the server alone.
func BenchmarkServeHit(b *testing.B) {
	h := New(Config{Suite: experiments.Paper(), SuiteName: "paper", Registry: obs.NewRegistry()}).Handler()
	for _, bc := range []struct{ name, path, body string }{
		{"predict", "/predict", `{"kernel":"ft","n":4,"f":1400}`},
		{"sweep", "/sweep", `{"kernel":"ft"}`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			data := []byte(bc.body)
			body := new(reusedBody)
			r := httptest.NewRequest(http.MethodPost, bc.path, body)
			r.Header.Set("Content-Type", "application/json")
			w := &hitWriter{h: http.Header{}}
			hit := func() {
				body.Reset(data)
				w.reset()
				h.ServeHTTP(w, r)
				if w.code != http.StatusOK {
					b.Fatalf("%s = %d", bc.path, w.code)
				}
			}
			hit() // the first request measures the campaign
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hit()
			}
		})
	}
}
