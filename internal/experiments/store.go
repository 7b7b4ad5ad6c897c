package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"

	"pasp/internal/cluster"
	"pasp/internal/obs"
)

// The campaign store memoizes measurement campaigns for the lifetime of the
// process. Every table, figure, EDP, segment-model and DVFS experiment
// starts from a campaign, and most of them start from the *same* campaign:
// before the store, the benchmark harness re-simulated the FT sweep seven
// times. A campaign is a pure function of (kernel class and parameters,
// grid, platform), so it is content-keyed on those and measured at most
// once. The key also names the suite's PingReps: a campaign memoizes its
// SP and FP fits, and the FP fit prices messages with PingReps ping-pongs,
// so everything a stored campaign holds is a pure function of its key.
//
// Cached campaigns are shared: every caller receives the same *Campaign and
// must treat it — Meas, Cells and the per-cell Results and Traces — as
// read-only. All in-tree consumers only read (grids, trace scans); the
// fit memo is the campaign's own, synchronized.
//
// Variant platforms are naturally distinct keys: the ablations mutate a
// copy of Suite.Platform (FlowConcurrency, MsgCPUIns, BusDrop, ...) and the
// fingerprint of the modified struct no longer matches the stock one.
//
// Measurement is singleflighted per entry with caller-cancellation
// semantics, which is what lets paserve coalesce a storm of identical
// requests onto one simulation:
//
//   - The first caller of an unmeasured entry becomes the *leader* and runs
//     the sweep; concurrent callers for the same key become *waiters* and
//     block until the leader finishes.
//   - Every caller passes its own context. The sweep itself runs under an
//     internal context that is cancelled only when every interested caller
//     has gone away — one impatient waiter leaving never aborts a
//     measurement others still want.
//   - A caller whose context is cancelled returns that context's error
//     immediately (before the leader even starts, if the context arrives
//     dead); if it was the last interested caller the in-flight sweep stops
//     at its next cell boundary.
//   - A sweep that aborts on cancellation is *not* cached: the entry resets
//     and the next caller measures afresh. Genuine measurement errors are
//     cached exactly as the pre-context store cached them.

// campaignKey identifies one campaign by content, not by call site. The
// structs it renders with %+v (machine.Config, simnet.Config,
// power.Profile, faults.Config and the npb classes) contain only scalars,
// arrays and slices — no maps, no pointers — so the rendering is
// deterministic and content-complete. Suite.Kernels renders it once per
// kernel table.
type campaignKey struct {
	kernel   string // kernel name plus its full parameter struct
	grid     string // Ns × MHz
	platform string // machine, network and power models plus MaxNodes
	pingReps int    // Suite.PingReps, the one FP-fit input the rest omits
}

// flight is one in-progress measurement attempt of an entry. Its fields are
// guarded by the owning entry's mutex; ctx/cancel control the sweep and
// finished is closed when the attempt's outcome has been recorded.
type flight struct {
	ctx      context.Context
	cancel   context.CancelFunc
	finished chan struct{}
	waiters  int // callers (leader included) still interested in this attempt
	// leader is the request ID of the caller that started this attempt
	// (empty outside the serving path). Coalesced waiters surface it in
	// their wide events so a slow request can be traced to the one
	// simulation every rider shared.
	leader string
}

// storeEntry is one memoized campaign slot.
type storeEntry struct {
	mu     sync.Mutex
	done   bool
	camp   *Campaign
	err    error
	flight *flight // non-nil while a measurement attempt is in progress
}

// campaignStore is the process-wide cache. A mutex guards the map; each
// entry serializes its own measurement (see storeEntry.get), so campaigns
// under different keys measure concurrently.
var campaignStore = struct {
	mu sync.Mutex
	m  map[campaignKey]*storeEntry
}{m: map[campaignKey]*storeEntry{}}

// Measure returns the kernel's memoized campaign, sweeping its grid at most
// once per process. ctx bounds this caller's interest only — see the
// singleflight contract at the top of the file.
func (k Kernel) Measure(ctx context.Context) (*Campaign, error) {
	campaignStore.mu.Lock()
	e, ok := campaignStore.m[k.key]
	if !ok {
		e = &storeEntry{}
		campaignStore.m[k.key] = e
	}
	campaignStore.mu.Unlock()
	// An entry found in the map is a hit — a reuse of a measured (or
	// in-flight) campaign — and a created one is a miss. The counters live
	// on the process-wide registry so the memoization rate is observable
	// end-to-end; TestStoreHitMissCounters pins the accounting against
	// known reuse counts to catch silent regressions.
	if ok {
		obs.Default().Counter("store.hits").Inc()
	} else {
		obs.Default().Counter("store.misses").Inc()
	}
	return e.get(ctx, func(mctx context.Context) (*Campaign, error) {
		cells, err := cluster.Sweep(mctx, k.platform, k.Grid, k.Run)
		if err != nil {
			return nil, err
		}
		camp := NewCampaign(cells)
		recordCampaignSpan(mctx, strings.ToUpper(k.Name), camp)
		return camp, nil
	})
}

// Peek returns the kernel's memoized campaign if — and only if — its
// measurement has already completed. It never joins or starts a flight,
// so servers can answer cache hits without consuming an admission slot.
func (k Kernel) Peek() (*Campaign, bool) {
	campaignStore.mu.Lock()
	e, ok := campaignStore.m[k.key]
	campaignStore.mu.Unlock()
	if !ok {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done || e.err != nil {
		return nil, false
	}
	return e.camp, true
}

// isCancellation reports whether err is (or wraps) a context cancellation —
// the class of measurement failure the store must not cache, because it
// says nothing about the campaign, only about the callers who asked for it.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// get returns the entry's campaign, measuring it with measure if needed.
// Exactly one caller at a time runs measure (the leader); the rest wait.
func (e *storeEntry) get(ctx context.Context, measure func(context.Context) (*Campaign, error)) (*Campaign, error) {
	fi := obs.FlightInfoFrom(ctx)
	e.mu.Lock()
	for {
		if e.done {
			// Only callers that never led or coalesced report "done": a
			// waiter whose flight completed re-enters this branch, and its
			// event must keep saying which leader it rode.
			if fi != nil && fi.Mode == obs.FlightNone {
				fi.Mode = obs.FlightDone
			}
			e.mu.Unlock()
			return e.camp, e.err
		}
		// A dead context never starts, joins or waits on a flight: the
		// cancellation-before-leader-starts case aborts here with zero
		// simulation work.
		if err := ctx.Err(); err != nil {
			e.mu.Unlock()
			return nil, err
		}
		if e.flight == nil {
			f := &flight{finished: make(chan struct{}), waiters: 1, leader: obs.RequestIDFrom(ctx)}
			// The measurement context is detached from any one caller's
			// lifetime (cancellation is interest-counted, not inherited),
			// but it inherits the leader's request identity and span parent
			// so the sweep's error messages and the recorded campaign span
			// attribute the simulation to the request that started it.
			mctx := obs.WithRequestID(context.Background(), f.leader)
			mctx = obs.WithSpanParent(mctx, obs.SpanParentFrom(ctx))
			f.ctx, f.cancel = context.WithCancel(mctx)
			e.flight = f
			if fi != nil {
				fi.Mode = obs.FlightLed
			}
			e.mu.Unlock()
			// The leader is about to block inside measure, so its own
			// context is watched from the side: if it dies mid-sweep the
			// leader's interest is withdrawn exactly like a waiter's, and
			// the sweep keeps running only while someone still wants it.
			stop := context.AfterFunc(ctx, func() { e.abandon(f) })
			camp, err := measure(f.ctx)
			if stop() {
				e.abandon(f)
			}
			f.cancel()
			e.mu.Lock()
			e.flight = nil
			if err == nil || !isCancellation(err) {
				e.done, e.camp, e.err = true, camp, err
			}
			close(f.finished)
			if e.done {
				e.mu.Unlock()
				return e.camp, e.err
			}
			// The sweep was abandoned. If this leader's own context is the
			// one that died, report it; otherwise (every waiter left but the
			// leader is still interested) loop and lead a fresh attempt.
			if cerr := ctx.Err(); cerr != nil {
				e.mu.Unlock()
				return nil, cerr
			}
			continue
		}
		f := e.flight
		f.waiters++
		if fi != nil {
			fi.Mode, fi.Leader = obs.FlightCoalesced, f.leader
		}
		obs.Default().Counter("store.coalesced").Inc()
		e.mu.Unlock()
		select {
		case <-f.finished:
			e.mu.Lock()
			// Either the entry is done now, or the attempt was abandoned and
			// this waiter races to become the next leader.
		case <-ctx.Done():
			e.abandon(f)
			return nil, ctx.Err()
		}
	}
}

// abandon withdraws one caller's interest in a flight; the last withdrawal
// cancels the measurement context, stopping the sweep at its next cell.
func (e *storeEntry) abandon(f *flight) {
	e.mu.Lock()
	f.waiters--
	if f.waiters == 0 {
		f.cancel()
	}
	e.mu.Unlock()
}

// recordCampaignSpan reports a freshly measured campaign to the global
// observer when one is installed (patrace/pachaos/paserve). Campaigns have
// no single virtual clock, so the span covers [0, summed cell seconds] —
// deterministic per platform. When the measurement context carries a span
// parent (a serving request span), the campaign span nests under it and is
// tagged with the leading request's ID, so a Perfetto request track shows
// which simulation a slow request paid for. The nil-observer path is one
// atomic load.
func recordCampaignSpan(ctx context.Context, kernel string, camp *Campaign) {
	g := obs.Global()
	if g == nil {
		return
	}
	total := 0.0
	for _, c := range camp.Cells {
		total += c.Res.Seconds
	}
	attrs := []obs.Attr{
		obs.F("cells", float64(len(camp.Cells))),
		obs.F("virtual_seconds", total),
	}
	if id := obs.RequestIDFrom(ctx); id != "" {
		attrs = append(attrs, obs.A("request_id", id))
	}
	id := g.StartSpan(obs.SpanParentFrom(ctx), "campaign:"+kernel, 0, attrs...)
	g.EndSpan(id, total)
	g.Metrics().Counter("campaigns.measured").Inc()
}

// CampaignStoreSize reports how many distinct campaigns the process has
// measured — observability for tests and the benchmark harness.
func CampaignStoreSize() int {
	campaignStore.mu.Lock()
	defer campaignStore.mu.Unlock()
	return len(campaignStore.m)
}
