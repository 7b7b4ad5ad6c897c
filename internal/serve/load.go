package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The load harness drives a running paserve with a deterministic request
// schedule: which target each request hits is a pure function of (seed,
// request index) via a splitmix64 counter PRNG — the same construction the
// fault injector uses — so two runs with the same flags issue the identical
// request sequence. Only the wall-clock arrival times vary.

// Target is one weighted entry of the load mix.
type Target struct {
	// Name labels the target in the report ("predict", "healthz", ...).
	Name string
	// Method and Path address the endpoint; Body is sent verbatim.
	Method string
	Path   string
	Body   []byte
	// Weight is the target's relative share of the mix (≥ 1).
	Weight int
}

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// QPS is the offered request rate; Duration the run length. The total
	// request count is round(QPS·Duration) and is scheduled on a fixed
	// grid, so the offered load does not drift with response latency.
	QPS      float64
	Duration time.Duration
	// Targets is the weighted mix.
	Targets []Target
	// Seed keys the deterministic target schedule.
	Seed uint64
	// Concurrency caps outstanding requests (default 128). When the cap is
	// reached the sender blocks, so a stalled server shows up as achieved
	// QPS below offered QPS rather than unbounded goroutine growth.
	Concurrency int
	// Client is the HTTP client (default: one with a 30 s timeout).
	Client *http.Client
}

// TargetStats aggregates one target's outcomes.
type TargetStats struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
}

// LoadReport summarizes a load run.
type LoadReport struct {
	Requests    int            `json:"requests"`
	Transport   int            `json:"transport_errors"`
	Status      map[string]int `json:"status"`
	Non2xx      int            `json:"non_2xx"`
	Status5xx   int            `json:"status_5xx"`
	P50Ms       float64        `json:"p50_ms"`
	P99Ms       float64        `json:"p99_ms"`
	MaxMs       float64        `json:"max_ms"`
	ElapsedSec  float64        `json:"elapsed_sec"`
	OfferedQPS  float64        `json:"offered_qps"`
	AchievedQPS float64        `json:"achieved_qps"`
	Targets     []TargetStats  `json:"targets"`
	// IDMismatches counts responses whose X-Request-ID echo differs from
	// the deterministic ID the harness sent; IDDuplicates counts echoed IDs
	// seen on more than one response. Either being nonzero means request
	// attribution in the server's telemetry cannot be trusted.
	IDMismatches int `json:"id_mismatches"`
	IDDuplicates int `json:"id_duplicates"`
}

// String renders the report as the human summary paload prints.
func (r *LoadReport) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "requests %d in %.2f s (offered %.0f QPS, achieved %.0f QPS)\n",
		r.Requests, r.ElapsedSec, r.OfferedQPS, r.AchievedQPS)
	fmt.Fprintf(&b, "latency p50 %.2f ms, p99 %.2f ms, max %.2f ms\n", r.P50Ms, r.P99Ms, r.MaxMs)
	codes := make([]string, 0, len(r.Status))
	for c := range r.Status {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(&b, "status %s: %d\n", c, r.Status[c])
	}
	if r.Transport > 0 {
		fmt.Fprintf(&b, "transport errors: %d\n", r.Transport)
	}
	if r.IDMismatches > 0 || r.IDDuplicates > 0 {
		fmt.Fprintf(&b, "request-id mismatches: %d, duplicates: %d\n", r.IDMismatches, r.IDDuplicates)
	}
	for _, t := range r.Targets {
		fmt.Fprintf(&b, "target %s: %d\n", t.Name, t.Requests)
	}
	return b.String()
}

// splitmix64 is the counter-based generator keying the target schedule
// (same construction as internal/faults: a pure function of the counter,
// so the schedule is independent of goroutine interleaving).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// loadRequestID derives request i's deterministic X-Request-ID as a
// counter stream from a per-seed origin. Mixing the seed through
// splitmix64 first (with the high bit as a domain tag, keeping it off the
// target-pick stream, which hashes seed^i directly) scatters different
// seeds' origins across the full 64-bit space — xor-ing a small seed into
// the counter would merely permute one shared stream, so two runs with
// different seeds would repeat each other's IDs. The "load-" prefix marks
// harness-issued IDs in the server's event log.
func loadRequestID(seed, i uint64) string {
	return "load-" + hexID(splitmix64(splitmix64(seed|1<<63)+i))
}

// pick maps request index i onto the weighted target list.
func pick(targets []Target, totalWeight int, seed, i uint64) *Target {
	w := int(splitmix64(seed^i) % uint64(totalWeight))
	for t := range targets {
		w -= targets[t].Weight
		if w < 0 {
			return &targets[t]
		}
	}
	return &targets[len(targets)-1]
}

// quantileMs returns the q-quantile of sorted latency samples, in ms.
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}

// RunLoad drives the configured mix against BaseURL until the duration (or
// ctx) expires and returns the aggregate report. Request i fires at
// start + i/QPS; a response slower than the grid spacing never delays later
// arrivals unless the concurrency cap is hit.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	if cfg.QPS <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("serve: load needs positive qps and duration (got %g, %s)", cfg.QPS, cfg.Duration)
	}
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("serve: load has no targets")
	}
	totalWeight := 0
	for _, t := range cfg.Targets {
		if t.Weight < 1 {
			return nil, fmt.Errorf("serve: target %s has weight %d (want ≥ 1)", t.Name, t.Weight)
		}
		totalWeight += t.Weight
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 128
	}

	total := int(math.Round(cfg.QPS * cfg.Duration.Seconds()))
	if total < 1 {
		total = 1
	}
	spacing := time.Duration(float64(time.Second) / cfg.QPS)

	var (
		mu         sync.Mutex
		latencies  []time.Duration
		status     = map[string]int{}
		transport  int
		perTarget  = map[string]int{}
		seenIDs    = map[string]int{}
		mismatches int
		duplicates int
		wg         sync.WaitGroup
		sem        = make(chan struct{}, conc)
	)

	// The pacing clock is host wall time on purpose: the harness measures
	// the real server, not the simulated cluster.
	start := time.Now() //palint:ignore detsource -- load pacing is host wall time by design
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * spacing)
		if d := time.Until(due); d > 0 { //palint:ignore detsource -- load pacing is host wall time by design
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		t := pick(cfg.Targets, totalWeight, cfg.Seed, uint64(i))
		id := loadRequestID(cfg.Seed, uint64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			req, err := http.NewRequestWithContext(ctx, t.Method, cfg.BaseURL+t.Path, bytes.NewReader(t.Body))
			if err == nil {
				req.Header.Set(requestIDHeader, id)
				if t.Body != nil {
					req.Header.Set("Content-Type", "application/json")
				}
			}
			var resp *http.Response
			sent := time.Now() //palint:ignore detsource -- measuring real request latency
			if err == nil {
				resp, err = client.Do(req)
			}
			elapsed := time.Since(sent) //palint:ignore detsource -- measuring real request latency
			mu.Lock()
			defer mu.Unlock()
			perTarget[t.Name]++
			if err != nil {
				transport++
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			latencies = append(latencies, elapsed)
			status[fmt.Sprintf("%d", resp.StatusCode)]++
			// The server must echo the ID it was handed, exactly once: a
			// mismatch means attribution is broken, a duplicate means two
			// responses claim the same request.
			echo := resp.Header.Get(requestIDHeader)
			if echo != id {
				mismatches++
			}
			seenIDs[echo]++
			if seenIDs[echo] == 2 {
				duplicates++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start) //palint:ignore detsource -- load pacing is host wall time by design

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep := &LoadReport{
		Requests:     len(latencies) + transport,
		Transport:    transport,
		Status:       status,
		P50Ms:        quantileMs(latencies, 0.50),
		P99Ms:        quantileMs(latencies, 0.99),
		MaxMs:        quantileMs(latencies, 1.00),
		ElapsedSec:   elapsed.Seconds(),
		OfferedQPS:   cfg.QPS,
		IDMismatches: mismatches,
		IDDuplicates: duplicates,
	}
	if rep.ElapsedSec > 0 {
		rep.AchievedQPS = float64(rep.Requests) / rep.ElapsedSec
	}
	for code, n := range status {
		if code[0] != '2' {
			rep.Non2xx += n
		}
		if code[0] == '5' {
			rep.Status5xx += n
		}
	}
	names := make([]string, 0, len(perTarget))
	for n := range perTarget {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.Targets = append(rep.Targets, TargetStats{Name: n, Requests: perTarget[n]})
	}
	return rep, nil
}
