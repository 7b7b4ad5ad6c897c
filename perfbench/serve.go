package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pasp/internal/experiments"
	"pasp/internal/obs"
	"pasp/internal/serve"
)

// warmKernels are the paper's three kernels: the server measures them
// during set-up, so every request over them is a cache hit.
var warmKernels = []string{"ep", "ft", "lu"}

// sweepsPerWarmKernel weights the hit deck: with the 70 /predict cells of
// the warmed grids, 8 /sweep entries per kernel make about one request in
// four a /sweep, which gives each hit enough work that the latency tail
// follows the server rather than the scheduler.
const sweepsPerWarmKernel = 8

// callers is the closed-loop caller count of the hit phase: at most the
// two CPUs the benchmark is sized for.
const callers = 2

// request is one distinct request the benchmark sends.
type request struct {
	key    string // stable name; the golden file's key
	path   string
	body   []byte
	kernel string // for /sweep, whose rows the contract covers
}

// busyList is the fixed list of 33 requests that need simulation: a cold
// /sweep of each kernel the set-up did not warm, /robustness on FT and LU
// from a fixed seed list (fresh direct runs and an FP refit each), and 24
// small /trace runs. The traces are one FT configuration under 24 chaos
// seeds: the same work with distinct bodies, so the list's median falls on
// a plateau of like requests rather than between two unlike ones. The list
// takes about eight seconds on two CPUs; LU is the slowest kernel per run,
// so its robustness requests are the smaller ones.
func busyList() []request {
	var out []request
	for _, k := range []string{"cg", "mg", "is", "sp"} {
		out = append(out, request{key: "sweep " + k, path: "/sweep", kernel: k,
			body: mustJSON(serve.SweepRequest{Kernel: k})})
	}
	robust := func(k string, seed uint64, ns []int, mags []float64) {
		out = append(out, request{key: fmt.Sprintf("robustness %s seed=%d", k, seed), path: "/robustness",
			body: mustJSON(serve.RobustnessRequest{Kernel: k, Ns: ns, Magnitudes: mags, Seed: seed})})
	}
	for _, seed := range []uint64{1, 2, 3} {
		robust("ft", seed, []int{2, 4, 8}, []float64{0, 0.5, 1})
	}
	for _, seed := range []uint64{1, 2} {
		robust("lu", seed, []int{2, 4}, []float64{0, 1})
	}
	for seed := 1; seed <= 24; seed++ {
		chaos := fmt.Sprintf("seed=%d,jitter=0.5", seed)
		out = append(out, request{key: "trace ft n=4 f=1400 " + chaos, path: "/trace",
			body: mustJSON(serve.TraceRequest{Kernel: "ft", N: 4, F: serve.Gear{MHz: 1400}, Chaos: chaos})})
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs of scalars always marshal
	}
	return b
}

// hitDeck is the weighted set of distinct hit requests: every /predict cell
// of the warmed kernels' grids and sweepsPerWarmKernel copies of each
// warmed /sweep.
func hitDeck(s experiments.Suite) ([]request, []int, error) {
	var distinct []request
	var deck []int
	for _, name := range warmKernels {
		k, err := s.Kernel(name)
		if err != nil {
			return nil, nil, err
		}
		for _, n := range k.Grid.Ns {
			for _, f := range k.Grid.MHz {
				deck = append(deck, len(distinct))
				distinct = append(distinct, request{key: fmt.Sprintf("predict %s n=%d f=%g", name, n, f),
					path: "/predict", kernel: name,
					body: mustJSON(serve.PredictRequest{Kernel: name, N: n, F: serve.Gear{MHz: f}})})
			}
		}
		for i := 0; i < sweepsPerWarmKernel; i++ {
			deck = append(deck, len(distinct))
		}
		distinct = append(distinct, request{key: "sweep " + name, path: "/sweep", kernel: name,
			body: mustJSON(serve.SweepRequest{Kernel: name})})
	}
	return distinct, deck, nil
}

// splitmix64 is the counter PRNG the request schedule draws from.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// schedule returns the first length entries of the seeded request
// sequence over deck: the deck is dealt in cycles, each a Fisher–Yates
// shuffle whose draws are splitmix64 of the seed-keyed draw index. Every
// cycle holds each deck entry exactly once, so every seed sends the same
// distinct requests in another order.
func schedule(seed uint64, deck []int, length int) []uint16 {
	out := make([]uint16, 0, length)
	perm := make([]int, len(deck))
	key := splitmix64(seed)
	draw := uint64(0)
	for len(out) < length {
		copy(perm, deck)
		for j := len(perm) - 1; j > 0; j-- {
			r := int(splitmix64(key+draw) % uint64(j+1))
			draw++
			perm[j], perm[r] = perm[r], perm[j]
		}
		for _, t := range perm {
			if len(out) == length {
				break
			}
			out = append(out, uint16(t))
		}
	}
	return out
}

// contractLines reads the serving layer's committed /predict contract:
// "predict <kernel> n=<n> f=<f>" → the exact response body.
func contractLines(dir string) (map[string][]byte, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.golden"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no contract goldens under %s", dir)
	}
	out := map[string][]byte{}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		var key string
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "predict ") {
				key = line
				continue
			}
			out[key] = []byte(line + "\n")
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return out, nil
}

// checker validates response bodies: the /predict contract byte for byte
// where it covers a cell, the contract lines inside /sweep rows, and the
// recorded digest of every body.
type checker struct {
	gold     *goldenSet
	contract map[string][]byte
}

func (c *checker) check(r request, code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", r.key, code, body)
	}
	switch r.path {
	case "/predict":
		if want, ok := c.contract[r.key]; ok && !bytes.Equal(body, want) {
			return fmt.Errorf("%s: body differs from the contract golden", r.key)
		}
	case "/sweep":
		var resp struct {
			Rows []json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("%s: %w", r.key, err)
		}
		for _, row := range resp.Rows {
			var cell struct {
				N   int     `json:"n"`
				MHz float64 `json:"mhz"`
			}
			if err := json.Unmarshal(row, &cell); err != nil {
				return fmt.Errorf("%s: %w", r.key, err)
			}
			key := fmt.Sprintf("predict %s n=%d f=%g", r.kernel, cell.N, cell.MHz)
			if want, ok := c.contract[key]; ok && !bytes.Equal(append([]byte(row), '\n'), want) {
				return fmt.Errorf("%s: row %s differs from the contract golden", r.key, key)
			}
		}
	}
	return c.gold.checkBytes(r.key, body)
}

// responseRecorder is a reusable in-process ResponseWriter: the caller
// resets it between requests, so the benchmark adds no allocations of its
// own to the server's per-request count.
type responseRecorder struct {
	header http.Header
	code   int
	body   []byte
}

func (w *responseRecorder) Header() http.Header { return w.header }

func (w *responseRecorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *responseRecorder) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, b...)
	return len(b), nil
}

func (w *responseRecorder) reset() {
	clear(w.header)
	w.code = 0
	w.body = w.body[:0]
}

// requestBody is a resettable request body.
type requestBody struct{ bytes.Reader }

func (*requestBody) Close() error { return nil }

// client is one closed-loop caller: it sends its next request only after
// the previous one returned, timing each around ServeHTTP.
type client struct {
	h     http.Handler
	tr    *tracer
	track int
	reqs  map[string]*http.Request
	body  requestBody
	w     responseRecorder
	idSeq uint64
}

func newClient(h http.Handler, tr *tracer, track int) *client {
	return &client{h: h, tr: tr, track: track, reqs: map[string]*http.Request{},
		w: responseRecorder{header: http.Header{}}}
}

// do sends r and returns the status, the body (valid until the next call)
// and the latency. Traced clients tag the request with an ID the server's
// wide event and the benchmark's span share.
func (c *client) do(r request) (int, []byte, time.Duration) {
	req, ok := c.reqs[r.path]
	if !ok {
		req, _ = http.NewRequest(http.MethodPost, r.path, nil) // a constant path always parses
		req.Header.Set("Content-Type", "application/json")
		c.reqs[r.path] = req
	}
	c.body.Reset(r.body)
	req.Body = &c.body
	c.w.reset()
	var sp span
	if c.tr != nil {
		c.idSeq++
		id := fmt.Sprintf("pb-%d-%d", c.track, c.idSeq)
		req.Header.Set("X-Request-ID", id)
		sp = c.tr.start(-1, "serve:"+r.path, c.track, obs.A("request_id", id), obs.A("request", r.key))
	}
	begin := now()
	c.h.ServeHTTP(&c.w, req)
	d := now().Sub(begin)
	sp.end()
	return c.w.code, c.w.body, d
}

type serveState struct {
	h        http.Handler
	chk      *checker
	distinct []request
	// expected is the verified body of each distinct hit request; nil
	// where verification failed, so every later answer to it fails too.
	expected  [][]byte
	verifyErr []error
	sched     []uint16
	busy      []request
}

// hitRequests is how many hits the hit phase sends: about four seconds'
// worth for two callers on two CPUs, a fixed amount of work whose wall
// time is part of the workload's wall_s.
const hitRequests = 150000

// scheduleLen bounds the precomputed request sequence; a phase that sends
// more wraps around it.
const scheduleLen = 1 << 20

// newServeState reads the checks and the hit deck for a server on s and
// sends each distinct hit request once through h, which verifies its
// answer and fills the server's fit cache, the last lazy set-up before
// timing.
func newServeState(s experiments.Suite, h http.Handler, seed uint64, schedLen int) (*serveState, error) {
	gold, err := loadGolden("serve")
	if err != nil {
		return nil, err
	}
	contract, err := contractLines(filepath.Join("internal", "serve", "testdata", "contract"))
	if err != nil {
		return nil, err
	}
	st := &serveState{h: h, chk: &checker{gold: gold, contract: contract}, busy: busyList()}
	var deck []int
	st.distinct, deck, err = hitDeck(s)
	if err != nil {
		return nil, err
	}
	st.sched = schedule(seed, deck, schedLen)
	c := newClient(h, nil, 0)
	for _, r := range st.distinct {
		code, body, _ := c.do(r)
		err := st.chk.check(r, code, body)
		var want []byte
		if err == nil {
			want = append([]byte(nil), body...)
		}
		st.expected = append(st.expected, want)
		st.verifyErr = append(st.verifyErr, err)
	}
	return st, nil
}

func setupServe(cfg runConfig) (any, error) {
	s := experiments.Paper()
	for _, k := range warmKernels {
		if _, err := cfg.tr.timed(-1, "experiments:campaign:"+k, func() error {
			_, err := s.MeasureKernel(context.Background(), k)
			return err
		}); err != nil {
			return nil, err
		}
	}
	srv := serve.New(serve.Config{Suite: s, SuiteName: "paper"})
	return newServeState(s, srv.Handler(), cfg.seed, scheduleLen)
}

// phaseLog collects one caller's latencies and failures.
type phaseLog struct {
	lat     []float64 // microseconds
	failed  int
	reasons []string // the first few failures
}

func (l *phaseLog) fail(reason string) {
	l.failed++
	if len(l.reasons) < 10 {
		l.reasons = append(l.reasons, reason)
	}
}

// hitLoop runs one closed-loop caller over the shared schedule until the
// callers sharing next have taken limit requests from it or stop is closed
// (a nil stop never is), comparing every body with its verified bytes.
func (st *serveState) hitLoop(c *client, next *atomic.Uint64, limit uint64, stop <-chan struct{}, log *phaseLog) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		i := next.Add(1) - 1
		if i >= limit {
			return
		}
		t := int(st.sched[i%uint64(len(st.sched))])
		code, body, d := c.do(st.distinct[t])
		log.lat = append(log.lat, float64(d.Nanoseconds())/1e3)
		if want := st.expected[t]; code != http.StatusOK || want == nil || !bytes.Equal(body, want) {
			log.fail(fmt.Sprintf("%s: status %d, body differs from its verified bytes", st.distinct[t].key, code))
		}
	}
}

// timedServe runs the hit phase (two callers share hitRequests hits) and
// then the busy phase (one caller on the hit mix beside one working
// through the fixed simulation list). Both are fixed work, so wall_s
// covers both; the phase figures are printed as details.
func timedServe(cfg runConfig, state any, res *childResult) error {
	st := state.(*serveState)
	for _, err := range st.verifyErr {
		res.record("verify", err)
	}
	var next atomic.Uint64
	clients := make([]*client, callers)
	for i := range clients {
		clients[i] = newClient(st.h, cfg.tr, i)
	}
	p0 := readProc()
	logs := make([]phaseLog, callers)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st.hitLoop(clients[i], &next, hitRequests, nil, &logs[i])
		}(i)
	}
	wg.Wait()
	hitWall := now().Sub(p0.wall)

	var busyHits phaseLog
	var missLat []float64
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		st.hitLoop(clients[0], &next, math.MaxUint64, stop, &busyHits)
	}()
	busyBegin := now()
	for _, r := range st.busy {
		code, body, d := clients[1].do(r)
		missLat = append(missLat, float64(d.Nanoseconds())/1e6)
		res.record("miss", st.chk.check(r, code, body))
	}
	busyWall := now().Sub(busyBegin)
	close(stop)
	wg.Wait()

	var hitLat []float64
	for i := range logs {
		hitLat = append(hitLat, logs[i].lat...)
		recordLog(res, "hit", &logs[i])
	}
	recordLog(res, "busy-hit", &busyHits)
	res.Metrics["hit_rps"] = float64(len(hitLat)) / hitWall.Seconds()
	setPercentile(res.Metrics, "hit_p50_us", hitLat, 50)
	setPercentile(res.Metrics, "hit_p99_us", hitLat, 99)
	setPercentile(res.Metrics, "busy_hit_p50_us", busyHits.lat, 50)
	setPercentile(res.Metrics, "busy_hit_p99_us", busyHits.lat, 99)
	setPercentile(res.Metrics, "miss_p50_ms", missLat, 50)
	res.Metrics["busy_wall_s"] = busyWall.Seconds()
	endPhase(res, p0)
	return st.chk.gold.save()
}

func recordLog(res *childResult, phase string, l *phaseLog) {
	p := res.phase(phase)
	p.Sent += len(l.lat)
	p.Failed += l.failed
	p.Succeeded += len(l.lat) - l.failed
	for _, r := range l.reasons {
		if len(res.Failures) < 10 {
			res.Failures = append(res.Failures, phase+": "+r)
		}
	}
}

// setPercentile reports a latency percentile only when enough samples lie
// beyond it to support it. It sorts samples.
func setPercentile(out map[string]float64, name string, samples []float64, p float64) {
	if v, ok := percentile(samples, p); ok {
		out[name] = v
	}
}
