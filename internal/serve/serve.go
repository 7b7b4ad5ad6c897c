// Package serve exposes the prediction pipeline as an HTTP/JSON service:
// measured campaigns, SP/FP model predictions, robustness sweeps and
// Perfetto traces, all computed on demand and memoized by the process-wide
// campaign store.
//
// The server's concurrency model has two tiers. Requests answerable from an
// already-measured campaign (the steady-state regime) peek at the store
// under two short mutex sections, with the campaign key rendered once in
// New, and bypass admission entirely, so cache hits stay cheap at
// thousands of QPS. Requests that need simulation first acquire one of a
// bounded set of slots — a full house answers 429 with Retry-After instead
// of queueing unboundedly — and then join the store's per-entry
// singleflight, so any number of concurrent identical requests cost one
// sweep. The caller's context travels into cluster.Sweep; when every
// interested request has gone away the sweep itself is cancelled.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pasp/internal/experiments"
	"pasp/internal/faults"
	"pasp/internal/mpi"
	"pasp/internal/obs"
	"pasp/internal/stats"
)

// statusClientClosed is the non-standard status reported when the client
// cancelled the request before the answer was ready (nginx's 499
// convention). The connection is gone, so the code is only visible in the
// metrics — it keeps abandoned requests out of the 5xx error budget.
const statusClientClosed = 499

// Config parameterizes a Server. The zero value of every field has a
// usable default.
type Config struct {
	// Suite supplies the platform, grids and kernel classes.
	Suite experiments.Suite
	// SuiteName labels the suite in /healthz ("paper", "quick", "scale").
	SuiteName string
	// MaxInFlight bounds concurrently *simulating* requests — cache hits
	// are not admission-controlled. Default 4.
	MaxInFlight int
	// MaxBodyBytes caps request bodies. Default 64 KiB.
	MaxBodyBytes int64
	// Registry receives the server's metrics. Default obs.Default(), which
	// also carries the campaign store's hit/miss/coalesced counters, so one
	// /metrics scrape shows the whole pipeline.
	Registry *obs.Registry
	// Events receives one wide event per request and backs /debug/requests.
	// nil (the default) disables per-request event telemetry entirely —
	// responses and the remaining instruments are byte-identical either way.
	Events *obs.EventLog
	// Trace receives one span per request, under which the campaign spans
	// of any simulations the request triggered nest (via the store's global
	// recorder). nil disables request spans.
	Trace *obs.Recorder
}

// Server is the HTTP frontend. Create one with New and mount Handler.
type Server struct {
	suite     experiments.Suite
	suiteName string
	kernels   map[string]*servedKernel
	reg       *obs.Registry
	// Peek-served /predict and /sweep requests.
	predictHits, sweepHits *obs.Counter
	// tapes keeps /trace recordings; traceReplays counts the /trace
	// requests answered by replaying one.
	tapes        *tapeCache
	traceReplays *obs.Counter
	// slots is the admission semaphore: held while a request is entitled to
	// run (or wait on) a simulation, never by peek-served cache hits.
	slots   chan struct{}
	maxBody int64
	events  *obs.EventLog
	trace   *obs.Recorder
	// epoch anchors request-span timestamps and the uptime gauge; idSeed
	// and idSeq key the splitmix64 request-ID stream; spanSeq spreads
	// request spans across exporter tracks; flights feeds the adaptive
	// Retry-After hint with led-flight durations.
	epoch   time.Time
	idSeed  uint64
	idSeq   atomic.Uint64
	spanSeq atomic.Uint64
	flights *obs.Histogram
}

// New builds a server over cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 10
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.SuiteName == "" {
		cfg.SuiteName = "custom"
	}
	kernels := make(map[string]*servedKernel)
	for name, k := range cfg.Suite.Kernels() {
		kernels[name] = &servedKernel{Kernel: k}
	}
	epoch := time.Now() //palint:ignore detsource -- the server's epoch is host time by definition
	return &Server{
		suite:        cfg.Suite,
		suiteName:    cfg.SuiteName,
		kernels:      kernels,
		reg:          cfg.Registry,
		predictHits:  cfg.Registry.Counter("serve.predict.cache_hits"),
		sweepHits:    cfg.Registry.Counter("serve.sweep.cache_hits"),
		tapes:        newTapeCache(cfg.Registry),
		traceReplays: cfg.Registry.Counter("serve.trace.replays"),
		slots:        make(chan struct{}, cfg.MaxInFlight),
		maxBody:      cfg.MaxBodyBytes,
		events:       cfg.Events,
		trace:        cfg.Trace,
		epoch:        epoch,
		idSeed:       splitmix64(uint64(epoch.UnixNano())),
		flights:      cfg.Registry.Histogram("serve.flight.seconds", flightBuckets),
	}
}

// Handler returns the server's routed, instrumented handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.instrument("predict", http.MethodPost, s.handlePredict))
	mux.HandleFunc("/sweep", s.instrument("sweep", http.MethodPost, s.handleSweep))
	mux.HandleFunc("/robustness", s.instrument("robustness", http.MethodPost, s.handleRobustness))
	mux.HandleFunc("/trace", s.instrument("trace", http.MethodPost, s.handleTrace))
	mux.HandleFunc("/healthz", s.instrument("healthz", http.MethodGet, s.handleHealthz))
	mux.HandleFunc("/metrics", s.instrument("metrics", http.MethodGet, s.handleMetrics))
	mux.HandleFunc("/debug/requests", s.instrument("debug.requests", http.MethodGet, s.handleDebugRequests))
	return mux
}

// statusWriter records the response status for the status-class counters
// and the error message (set by writeError) for the wide event.
type statusWriter struct {
	http.ResponseWriter
	code   int
	errMsg string
}

func (w *statusWriter) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
	w.ResponseWriter.WriteHeader(c)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps h with the per-endpoint plumbing: method enforcement,
// the request-body byte cap, request-ID assignment and propagation, the
// serve.<name>.{requests,inflight,seconds,status.Nxx} instruments, and —
// when the server carries an event log or trace recorder — the reqTrack
// accumulating the request's wide event and span.
func (s *Server) instrument(name, method string, h http.HandlerFunc) http.HandlerFunc {
	requests := s.reg.Counter("serve." + name + ".requests")
	inflight := s.reg.Gauge("serve." + name + ".inflight")
	latency := s.reg.Histogram("serve."+name+".seconds", obs.SecondsBuckets)
	var classes [10]atomic.Pointer[obs.Counter] // made on first use; net/http keeps codes in 100–999
	countStatus := func(code int) {
		c := classes[code/100].Load()
		if c == nil {
			c = s.reg.Counter(fmt.Sprintf("serve.%s.status.%dxx", name, code/100))
			classes[code/100].Store(c)
		}
		c.Inc()
	}
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		// Every response echoes the request's ID — the client's handle for
		// correlating its own logs with the server's wide events.
		id := s.requestID(r)
		sw.Header().Set(requestIDHeader, id)
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(sw, http.StatusMethodNotAllowed,
				fmt.Errorf("serve: %s %s (the endpoint takes %s)", r.Method, r.URL.Path, method))
			countStatus(sw.code)
			return
		}
		requests.Inc()
		inflight.Add(1)
		// Request latency is wall-clock by definition: it measures this
		// process, not the simulated cluster.
		start := time.Now() //palint:ignore detsource -- serving latency is host time, not virtual time
		ctx := obs.WithRequestID(r.Context(), id)
		var t *reqTrack
		if s.events != nil || s.trace != nil {
			t = &reqTrack{start: start, last: start, spanID: -1}
			t.ev.ID = id
			t.ev.Target = name
			if s.trace != nil {
				track := int(s.spanSeq.Add(1)-1) % requestTracks
				t.spanID = s.trace.StartSpanAt(-1, "req:"+name, track,
					start.Sub(s.epoch).Seconds(), obs.A("request_id", id))
				// The campaign span of any simulation this request leads
				// nests under the request span (recordCampaignSpan reads
				// the parent from the measurement context).
				ctx = obs.WithSpanParent(ctx, t.spanID)
			}
			ctx = withTrack(ctx, t)
		}
		r = r.WithContext(ctx)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		h(sw, r)
		elapsed := time.Since(start) //palint:ignore detsource -- serving latency is host time, not virtual time
		latency.Observe(elapsed.Seconds())
		inflight.Add(-1)
		countStatus(sw.code)
		s.finishRequest(t, sw, elapsed)
	}
}

// acquire takes an admission slot, or answers 429 + Retry-After and
// reports false when MaxInFlight simulations are already running. The
// Retry-After value adapts to how long this server's flights actually take
// (see retryAfterHint).
func (s *Server) acquire(w http.ResponseWriter) bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		s.reg.Counter("serve.rejected").Inc()
		w.Header().Set("Retry-After", s.retryAfterHint())
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("serve: %d simulations already in flight", cap(s.slots)))
		return false
	}
}

// release returns an admission slot.
func (s *Server) release() { <-s.slots }

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// writeRunError maps a measurement failure to a status: the client taking
// its context away is 499 (its problem, not ours); anything else is 500.
func writeRunError(w http.ResponseWriter, err error) {
	if isCtxErr(err) {
		writeError(w, statusClientClosed, fmt.Errorf("serve: client cancelled: %w", err))
		return
	}
	writeError(w, http.StatusInternalServerError, err)
}

// kernel resolves the request's kernel name, answering 404 on miss.
func (s *Server) kernel(w http.ResponseWriter, name string) (*servedKernel, bool) {
	k, ok := s.kernels[name]
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("serve: unknown kernel %q (have %v)", name, s.suite.KernelNames()))
	}
	return k, ok
}

// campaign returns the kernel's measured campaign: peek-served from the
// store when already measured (counted on hits, no admission slot), else
// measured under an admission slot with the request's context. On failure
// the response has been written and ok is false.
func (s *Server) campaign(w http.ResponseWriter, r *http.Request, k *servedKernel, hits *obs.Counter) (*experiments.Campaign, bool) {
	t := trackFrom(r.Context())
	if camp, ok := k.Peek(); ok {
		hits.Inc()
		t.lap(stagePeek)
		t.setCache("hit", "")
		return camp, true
	}
	t.lap(stagePeek)
	if !s.acquire(w) {
		return nil, false
	}
	t.lap(stageAdmission)
	defer s.release()
	// The flight annotation slot tells us afterwards whether this request
	// led the simulation, coalesced onto another request's flight, or found
	// the entry measured — which decides both the event's cache disposition
	// and which stage the elapsed time belongs to.
	var fi obs.FlightInfo
	ctx := obs.WithFlightInfo(r.Context(), &fi)
	begin := time.Now() //palint:ignore detsource -- flight duration is host time feeding the Retry-After hint
	camp, err := k.Measure(ctx)
	d := time.Since(begin) //palint:ignore detsource -- flight duration is host time feeding the Retry-After hint
	switch fi.Mode {
	case obs.FlightCoalesced:
		t.addStage(stageCoalesce, d)
		t.setCache("coalesced", fi.Leader)
	case obs.FlightDone:
		// Measured between the peek and the store call — a hit in all but
		// timing; the (tiny) wait is store bookkeeping, charged to peek.
		t.addStage(stagePeek, d)
		t.setCache("hit", "")
	default:
		t.addStage(stageSweep, d)
		t.setCache("miss", "")
		if err == nil {
			s.flights.Observe(d.Seconds())
		}
	}
	if err != nil {
		writeRunError(w, err)
		return nil, false
	}
	return camp, true
}

// PredictResponse is the answer for one configuration. The fields are a
// deterministic function of the measured campaign and the fitted models —
// no timestamps or pointers — which is what lets the contract goldens
// demand byte-identical bodies at any GOMAXPROCS.
type PredictResponse struct {
	Kernel string  `json:"kernel"`
	N      int     `json:"n"`
	MHz    float64 `json:"mhz"`
	// Measured values of the cell.
	Seconds float64 `json:"seconds"`
	Joules  float64 `json:"joules"`
	Watts   float64 `json:"watts"`
	EDP     float64 `json:"edp"`
	Speedup float64 `json:"speedup"`
	// SP-model predictions (Eq. 18) and their relative error.
	SPSeconds float64 `json:"sp_seconds"`
	SPSpeedup float64 `json:"sp_speedup"`
	SPErr     float64 `json:"sp_err"`
	// FP-model predictions, present only where the full parameterization is
	// fittable for this kernel (it needs per-N message statistics).
	FPSeconds *float64 `json:"fp_seconds,omitempty"`
	FPErr     *float64 `json:"fp_err,omitempty"`
}

// predictRow assembles one PredictResponse from a measured campaign and
// the models the campaign memoizes: the first row of a kernel pays for the
// SP and FP fits, every later one reuses them.
func predictRow(k experiments.Kernel, camp *experiments.Campaign, n int, mhz float64) (PredictResponse, error) {
	res, err := camp.Cell(n, mhz)
	if err != nil {
		return PredictResponse{}, err
	}
	speedup, err := camp.Meas.Speedup(n, mhz)
	if err != nil {
		return PredictResponse{}, err
	}
	sp, err := camp.SP()
	if err != nil {
		return PredictResponse{}, err
	}
	spT, err := sp.PredictTime(n, mhz)
	if err != nil {
		return PredictResponse{}, err
	}
	spS, err := sp.PredictSpeedup(n, mhz)
	if err != nil {
		return PredictResponse{}, err
	}
	row := PredictResponse{
		Kernel:    k.Name,
		N:         n,
		MHz:       mhz,
		Seconds:   res.Seconds,
		Joules:    res.Joules,
		Watts:     res.AvgWatts(),
		EDP:       res.EDP(),
		Speedup:   speedup,
		SPSeconds: spT,
		SPSpeedup: spS,
		SPErr:     stats.RelError(spT, res.Seconds),
	}
	// The FP fit legitimately fails for workload shapes outside its
	// methodology (a grid cell that sent no messages); the row then omits
	// the FP fields.
	if fp, err := k.FP(camp); err == nil {
		if fpT, err := fp.PredictTime(n, mhz); err == nil {
			v := float64(fpT)
			e := stats.RelError(v, res.Seconds)
			row.FPSeconds, row.FPErr = &v, &e
		}
	}
	return row, nil
}

// servedKernel is a kernel with its answer memo: every answer a hit can
// give, a pure function of the campaign and its fits, rendered once. The
// store never evicts the campaign, so the memo is bounded as the store is.
type servedKernel struct {
	experiments.Kernel
	once    sync.Once
	predict []answer // each grid cell's /predict answer, in sweep order
	sweep   answer
}

// answer is a rendered 200 body, or a row error answered as writeError's 500.
type answer struct {
	body []byte
	err  error
}

func (a answer) write(w http.ResponseWriter) {
	if a.err != nil {
		writeError(w, http.StatusInternalServerError, a.err)
		return
	}
	writeBody(w, http.StatusOK, a.body)
}

// answers returns k with its answers, rendering them from camp on the first
// call while concurrent callers wait. predictRow and encodeJSON derive and
// encode them as a per-request render would: the /sweep rows are the grid
// in sweep order, and the /sweep fails on its first failing row.
func (s *Server) answers(k *servedKernel, camp *experiments.Campaign) *servedKernel {
	k.once.Do(func() {
		s.reg.Counter("serve.renders").Inc()
		resp := SweepResponse{Kernel: k.Name}
		for _, n := range k.Grid.Ns {
			for _, mhz := range k.Grid.MHz {
				row, err := predictRow(k.Kernel, camp, n, mhz)
				if err != nil {
					k.predict = append(k.predict, answer{err: err})
					k.sweep.err = cmp.Or(k.sweep.err, err)
					continue
				}
				k.predict = append(k.predict, answer{body: encodeJSON(row)})
				resp.Rows = append(resp.Rows, row)
			}
		}
		if k.sweep.err == nil {
			k.sweep.body = encodeJSON(resp)
		}
	})
	return k
}

// Warm measures the named kernel's campaign and renders its answers, which
// fits its SP and FP models, so its first hits are memo hits. It fails
// when the measurement does or the /sweep answer is an error.
func (s *Server) Warm(ctx context.Context, kernel string) error {
	k, ok := s.kernels[kernel]
	if !ok {
		return fmt.Errorf("serve: unknown kernel %q (have %v)", kernel, s.suite.KernelNames())
	}
	camp, err := k.Measure(ctx)
	if err != nil {
		return err
	}
	return s.answers(k, camp).sweep.err
}

// handlePredict answers POST /predict: one kernel configuration.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	t := trackFrom(r.Context())
	var req PredictRequest
	if err := decode(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	k, ok := s.kernel(w, req.Kernel)
	if !ok {
		return
	}
	i, j := slices.Index(k.Grid.Ns, req.N), slices.Index(k.Grid.MHz, req.F.MHz)
	if i < 0 || j < 0 {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("serve: (N=%d, f=%g MHz) is not on %s's campaign grid (Ns %v, MHz %v)",
				req.N, req.F.MHz, k.Name, k.Grid.Ns, k.Grid.MHz))
		return
	}
	t.lap(stageDecode)
	t.setConfig(k.Name, req.N, req.F.MHz)
	camp, ok := s.campaign(w, r, k, s.predictHits)
	if !ok {
		return
	}
	a := s.answers(k, camp).predict[i*len(k.Grid.MHz)+j]
	t.lap(stageFit)
	a.write(w)
	t.lap(stageEncode)
}

// SweepResponse is the answer for a kernel's full campaign grid, rows in
// sweep order (N-major, frequency-minor — exactly the cell order of
// cluster.Sweep).
type SweepResponse struct {
	Kernel string            `json:"kernel"`
	Rows   []PredictResponse `json:"rows"`
}

// handleSweep answers POST /sweep: every cell of the kernel's grid.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	t := trackFrom(r.Context())
	var req SweepRequest
	if err := decode(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	k, ok := s.kernel(w, req.Kernel)
	if !ok {
		return
	}
	t.lap(stageDecode)
	t.setConfig(k.Name, 0, 0)
	camp, ok := s.campaign(w, r, k, s.sweepHits)
	if !ok {
		return
	}
	a := s.answers(k, camp).sweep
	t.lap(stageFit)
	a.write(w)
	t.lap(stageEncode)
}

// RobustnessResponse is the answer for a perturbation sweep. Matrices are
// indexed [magnitude][n], mirroring experiments.RobustnessResult.
type RobustnessResponse struct {
	Kernel     string      `json:"kernel"`
	BaseMHz    float64     `json:"base_mhz"`
	Ns         []int       `json:"ns"`
	Magnitudes []float64   `json:"magnitudes"`
	MeasSec    [][]float64 `json:"meas_sec"`
	SPErr      [][]float64 `json:"sp_err"`
	FPErr      [][]float64 `json:"fp_err"`
	FaultSec   [][]float64 `json:"fault_sec"`
	Retries    [][]int     `json:"retries"`
}

// handleRobustness answers POST /robustness: fit on the clean campaign,
// score against perturbed measurements. The perturbed cells are simulated
// (one record run per N, replayed under every other magnitude; see
// Suite.Robustness) and never stored, so the request always holds an
// admission slot; a client that goes away stops the sweep at the next
// cell boundary.
func (s *Server) handleRobustness(w http.ResponseWriter, r *http.Request) {
	var req RobustnessRequest
	if err := decode(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	k, ok := s.kernel(w, req.Kernel)
	if !ok {
		return
	}
	cfg := experiments.DefaultRobustnessFaults(req.Seed)
	if req.Chaos != "" {
		var err error
		cfg, err = faults.ParseSpec(req.Chaos)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	spec := experiments.RobustnessSpec{
		Kernel:     req.Kernel,
		Ns:         req.Ns,
		Magnitudes: req.Magnitudes,
		Faults:     cfg,
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	for _, n := range spec.Ns {
		if !k.Grid.Has(n, k.Grid.MHz[0]) {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("serve: robustness N=%d is not on %s's campaign grid %v", n, k.Name, k.Grid.Ns))
			return
		}
	}
	t := trackFrom(r.Context())
	t.lap(stageDecode)
	t.setConfig(k.Name, 0, 0)
	if !s.acquire(w) {
		return
	}
	t.lap(stageAdmission)
	defer s.release()
	res, err := s.suite.Robustness(r.Context(), spec)
	t.lap(stageSweep)
	if err != nil {
		writeRunError(w, err)
		return
	}
	defer t.lap(stageEncode)
	writeJSON(w, http.StatusOK, RobustnessResponse{
		Kernel:     res.Spec.Kernel,
		BaseMHz:    res.BaseMHz,
		Ns:         res.Spec.Ns,
		Magnitudes: res.Spec.Magnitudes,
		MeasSec:    res.MeasSec,
		SPErr:      res.SPErr,
		FPErr:      res.FPErr,
		FaultSec:   res.FaultSec,
		Retries:    res.Retries,
	})
}

// handleTrace answers POST /trace: one observed run exported as validated
// Chrome trace-event JSON (open the body in ui.perfetto.dev), at any (n, f)
// the platform supports — not limited to the campaign grid — under the
// request's chaos spec. The run is a replay of the kept tape of (kernel,
// n) when the tape cache holds one, and otherwise the kernel itself,
// recorded for the next request (see traceRun). Either way it simulates,
// so it holds an admission slot.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	var req TraceRequest
	if err := decode(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, ok := s.kernel(w, req.Kernel); !ok {
		return
	}
	cfg, err := faults.ParseSpec(req.Chaos)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	t := trackFrom(r.Context())
	t.lap(stageDecode)
	t.setConfig(req.Kernel, req.N, req.F.MHz)
	if !s.acquire(w) {
		return
	}
	t.lap(stageAdmission)
	defer s.release()
	st := s.suite
	st.Platform.Faults = cfg
	res, err := s.traceRun(st, req)
	t.lap(stageSweep)
	if err != nil {
		// The platform rejecting the configuration (too many nodes, no such
		// operating point) is the client's asking, not a server fault.
		writeError(w, http.StatusBadRequest, err)
		return
	}
	data := obs.ChromeTrace(res.Trace, "paserve "+req.Kernel)
	if _, err := obs.ValidateChromeTrace(data); err != nil {
		writeError(w, http.StatusInternalServerError,
			fmt.Errorf("serve: refusing to send invalid trace: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
	t.lap(stageEncode)
}

// traceRun simulates req on st's platform, which carries the request's
// chaos spec. With a tape of (kernel, n) kept, it replays the tape under
// the request's gear and spec, bit for bit the direct run (mpi.Replay);
// otherwise it runs the kernel with a recording attached and offers the
// tape to the cache.
func (s *Server) traceRun(st experiments.Suite, req TraceRequest) (*mpi.Result, error) {
	key := tapeKey{kernel: req.Kernel, n: req.N}
	if tape := s.tapes.get(key); tape != nil {
		w, err := st.Platform.World(req.N, req.F.MHz)
		if err != nil {
			return nil, err
		}
		res, err := mpi.Replay(w, tape)
		if err == nil {
			s.traceReplays.Inc()
		}
		return res, err
	}
	tape := mpi.NewRecording()
	res, err := st.RunKernelTraced(req.Kernel, req.N, req.F.MHz, nil, tape)
	if err == nil {
		s.tapes.put(key, tape)
	}
	return res, err
}

// healthBody is the /healthz payload.
type healthBody struct {
	Status string `json:"status"`
	Suite  string `json:"suite"`
}

// handleHealthz answers GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthBody{Status: "ok", Suite: s.suiteName})
}

// handleMetrics answers GET /metrics: the registry snapshot as the obs
// text exposition, or JSON with ?format=json. Go runtime gauges are
// refreshed on every scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.runtimeGauges()
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "json" {
		data, err := snap.JSON()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, snap.Text())
}
