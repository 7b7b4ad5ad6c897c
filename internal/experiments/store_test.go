package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pasp/internal/cluster"
	"pasp/internal/mpi"
	"pasp/internal/obs"
)

// TestStoreReturnsSharedCampaign proves the memoization contract: two calls
// to the same MeasureXX entry point return the same *Campaign, measured
// once.
func TestStoreReturnsSharedCampaign(t *testing.T) {
	s := Quick()
	a, err := s.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeat MeasureFT returned a distinct campaign; the store did not memoize")
	}
}

// TestStoreMatchesFreshMeasurement proves the cached campaign is
// bit-identical to an uncached sweep: the memoization may reorder nothing
// and recompute nothing that changes a reproduced number.
func TestStoreMatchesFreshMeasurement(t *testing.T) {
	s := Quick()
	cached, err := s.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cells, err := cluster.Sweep(context.Background(), s.Platform, s.Grid, s.RunFT)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewCampaign(cells)
	if len(cached.Cells) != len(fresh.Cells) {
		t.Fatalf("cached campaign has %d cells, fresh %d", len(cached.Cells), len(fresh.Cells))
	}
	for i := range fresh.Cells {
		c, f := cached.Cells[i], fresh.Cells[i]
		if c.N != f.N || c.MHz != f.MHz {
			t.Fatalf("cell %d: cached (N=%d f=%g) vs fresh (N=%d f=%g)", i, c.N, c.MHz, f.N, f.MHz)
		}
		//palint:ignore floateq -- bit-identity is the property under test, not a tolerance comparison
		if c.Res.Seconds != f.Res.Seconds || c.Res.Joules != f.Res.Joules {
			t.Errorf("cell N=%d f=%g: cached (%.17g s, %.17g J) differs from fresh (%.17g s, %.17g J)",
				c.N, c.MHz, c.Res.Seconds, c.Res.Joules, f.Res.Seconds, f.Res.Joules)
		}
	}
}

// storeKeyTrial makes each TestStoreKeysOnPlatformContent invocation use a
// distinct platform variant: the campaign store is process-wide, so under
// `go test -count=2` a fixed variant would already be memoized on the
// second pass and the size-growth assertion would misfire.
var storeKeyTrial float64

// TestStoreKeysOnPlatformContent proves a mutated platform gets its own
// store entry rather than poisoning the stock one — the property the
// ablation benchmarks rely on.
func TestStoreKeysOnPlatformContent(t *testing.T) {
	s := Quick()
	if _, err := s.MeasureFT(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := CampaignStoreSize()
	storeKeyTrial++
	variant := s
	variant.Platform.Net.MsgCPUIns = 100 * storeKeyTrial
	vc, err := variant.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if CampaignStoreSize() != before+1 {
		t.Errorf("store size %d after measuring a platform variant, want %d", CampaignStoreSize(), before+1)
	}
	stock, err := s.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if vc == stock {
		t.Error("platform variant shares the stock campaign; keying ignores platform content")
	}
}

// TestMergeCampaigns proves the ExtrapolateLU fast path — the memoized LU
// campaign and its held-out N=16 row joined by NewCampaign — scores exactly
// what one uncached sweep over the extended grid does, and leaves the
// shared store entry's cells as they were.
func TestMergeCampaigns(t *testing.T) {
	ctx := context.Background()
	s := Quick()
	s.LUGrid = cluster.Grid{Ns: []int{1, 2, 4, 8}, MHz: []float64{600, 1400}}
	base, err := s.MeasureLU(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Up to capacity: an append onto the stored slice would write past len.
	before := slices.Clone(base.Cells[:cap(base.Cells)])
	got, err := s.ExtrapolateLU(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := cluster.Sweep(ctx, s.Platform, cluster.Grid{Ns: []int{1, 2, 4, 8, 16}, MHz: s.LUGrid.MHz}, s.Kernels()["lu"].Run)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Extrapolate("LU", NewCampaign(cells), 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged campaign extrapolates to\n%v\nsingle extended sweep to\n%v", got, want)
	}
	if !slices.Equal(base.Cells[:cap(base.Cells)], before) {
		t.Error("ExtrapolateLU changed the stored LU campaign's cells")
	}
}

// storeObsTrial gives each hit/miss-counter test invocation a fresh store
// key, for the same -count=2 reason as storeKeyTrial. The offset keeps its
// platform variants disjoint from storeKeyTrial's.
var storeObsTrial float64

// TestStoreHitMissCounters is the instrumentation bug-guard: the
// process-wide hit/miss counters must equal the known reuse counts of a
// fresh campaign — one miss for the first measurement, one hit per reuse.
// A silent memoization regression (re-measuring on reuse) flips hits into
// misses and fails here before it shows up as a slow reproduction.
func TestStoreHitMissCounters(t *testing.T) {
	storeObsTrial++
	variant := Quick()
	variant.Platform.Net.MsgCPUIns = 7777 + storeObsTrial
	before := obs.Default().Snapshot()
	if _, err := variant.MeasureFT(context.Background()); err != nil {
		t.Fatal(err)
	}
	d := obs.Default().Snapshot().Delta(before)
	if d.Counter("store.misses") != 1 { //palint:ignore floateq -- exact integer counter delta
		t.Errorf("first measurement: misses delta = %g, want 1", d.Counter("store.misses"))
	}
	if d.Counter("store.hits") != 0 { //palint:ignore floateq -- exact integer counter delta
		t.Errorf("first measurement: hits delta = %g, want 0", d.Counter("store.hits"))
	}
	const reuses = 3
	for i := 0; i < reuses; i++ {
		if _, err := variant.MeasureFT(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	d = obs.Default().Snapshot().Delta(before)
	if d.Counter("store.misses") != 1 { //palint:ignore floateq -- exact integer counter delta
		t.Errorf("after %d reuses: misses delta = %g, want 1 (campaign re-measured?)", reuses, d.Counter("store.misses"))
	}
	if d.Counter("store.hits") != reuses { //palint:ignore floateq -- exact integer counter delta
		t.Errorf("after %d reuses: hits delta = %g, want %d", reuses, d.Counter("store.hits"), reuses)
	}
}

// TestStoreCampaignSpan proves a fresh measurement reports a campaign span
// to the installed global observer, with the span duration equal to the
// campaign's summed virtual seconds, and that reuse reports nothing new.
func TestStoreCampaignSpan(t *testing.T) {
	rec := obs.NewRecorder()
	prev := obs.SetGlobal(rec)
	defer obs.SetGlobal(prev)

	storeObsTrial++
	variant := Quick()
	variant.Platform.Net.MsgCPUIns = 7777 + storeObsTrial
	camp, err := variant.MeasureFT(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans after a fresh measurement, want 1: %+v", len(spans), spans)
	}
	if spans[0].Name != "campaign:FT" {
		t.Errorf("span name = %q, want campaign:FT", spans[0].Name)
	}
	total := 0.0
	for _, c := range camp.Cells {
		total += c.Res.Seconds
	}
	//palint:ignore floateq -- the span must carry the summed seconds verbatim
	if spans[0].End != total {
		t.Errorf("span end = %g, want summed cell seconds %g", spans[0].End, total)
	}
	if _, err := variant.MeasureFT(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Spans()); got != 1 {
		t.Errorf("reuse added spans: %d, want still 1", got)
	}
}

// TestKernelPeekAllocatesNothing pins the cache-hit lookup: a kernel's
// campaign key is rendered when its table is built, so peeking a measured
// campaign formats nothing and allocates nothing.
func TestKernelPeekAllocatesNothing(t *testing.T) {
	k, err := Quick().Kernel("ft")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Measure(context.Background()); err != nil {
		t.Fatal(err)
	}
	var ok bool
	if allocs := testing.AllocsPerRun(100, func() { _, ok = k.Peek() }); allocs != 0 {
		t.Errorf("Kernel.Peek allocates %v times per call, want 0", allocs)
	}
	if !ok {
		t.Error("Kernel.Peek missed a measured campaign")
	}
}

// TestRunKernelObserved checks the recorder injection path the patrace
// driver uses: the run span carries the kernel name, phase spans exist, and
// the run result is bit-identical to an unobserved run.
func TestRunKernelObserved(t *testing.T) {
	s := Quick()
	rec := obs.NewRecorder()
	res, err := s.RunKernelTraced("ft", 2, 600, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := s.RunKernelOnce("ft", 2, 600)
	if err != nil {
		t.Fatal(err)
	}
	//palint:ignore floateq -- bit-identity is the property under test, not a tolerance comparison
	if res.Seconds != plain.Seconds || res.Joules != plain.Joules {
		t.Errorf("observed run differs from plain run: %g s %g J vs %g s %g J",
			res.Seconds, res.Joules, plain.Seconds, plain.Joules)
	}
	spans := rec.Spans()
	if len(spans) == 0 || spans[0].Name != "run" {
		t.Fatalf("first span = %+v, want run span", spans)
	}
	foundKernel := false
	for _, a := range spans[0].Attrs {
		if a.Key == "kernel" && a.Value == "ft" {
			foundKernel = true
		}
	}
	if !foundKernel {
		t.Errorf("run span attrs %+v missing kernel=ft", spans[0].Attrs)
	}
	phases := 0
	for _, sp := range spans {
		if sp.Rank >= 0 && sp.Parent > 0 {
			phases++
		}
	}
	if phases == 0 {
		t.Error("no phase spans recorded for an observed FT run")
	}
	if rec.Metrics().Snapshot().Counter("mpi.runs") != 1 { //palint:ignore floateq -- exact integer counter
		t.Error("observed run did not count on the recorder registry")
	}
}

// cancelTrial gives each cancellation test invocation its own store key
// (the kernel-name component), for the same -count=2 reason as
// storeKeyTrial.
var cancelTrial atomic.Int64

// cancelKernel builds an EP kernel that sweeps with run. Callers pass a
// fresh cancelTrial name, so its store entry is the test's own.
func cancelKernel(s Suite, name string, run cluster.RunFunc) Kernel {
	ep := s.Kernels()["ep"]
	return s.newKernel(name, s.EP, ep.Grid, run, ep.key.platform)
}

// TestStoreCancelledBeforeLeaderStarts pins the zero-work abort: a caller
// whose context is already dead when it reaches the store returns that
// context's error without running a single simulation, and the entry stays
// measurable for the next live caller.
func TestStoreCancelledBeforeLeaderStarts(t *testing.T) {
	s := Quick()
	ep := s.Kernels()["ep"]
	var runs atomic.Int64
	k := cancelKernel(s, fmt.Sprintf("cancel%d", cancelTrial.Add(1)), func(w mpi.World) (*mpi.Result, error) {
		runs.Add(1)
		return ep.Run(w)
	})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := k.Measure(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context measure returned %v, want context.Canceled", err)
	}
	if got := runs.Load(); got != 0 {
		t.Fatalf("dead-context measure ran %d simulations, want 0", got)
	}

	camp, err := k.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(s.Grid.Ns) * len(s.Grid.MHz); len(camp.Cells) != want {
		t.Fatalf("follow-up measure produced %d cells, want %d", len(camp.Cells), want)
	}
}

// TestStoreAbandonedFlightRemeasures pins that a sweep cancelled mid-flight
// is not cached: the leader reports the cancellation, and the next caller
// measures afresh and succeeds.
func TestStoreAbandonedFlightRemeasures(t *testing.T) {
	s := Quick()
	ep := s.Kernels()["ep"]
	name := fmt.Sprintf("cancel%d", cancelTrial.Add(1))

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	blocking := func(w mpi.World) (*mpi.Result, error) {
		once.Do(func() { close(started) })
		<-release
		return ep.Run(w)
	}
	go func() {
		<-started
		cancel()       // withdraw the only caller's interest...
		close(release) // ...then let the in-flight cells drain
	}()
	if _, err := cancelKernel(s, name, blocking).Measure(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}

	camp, err := cancelKernel(s, name, ep.Run).Measure(context.Background())
	if err != nil {
		t.Fatalf("re-measure after abandoned flight: %v", err)
	}
	if want := len(s.Grid.Ns) * len(s.Grid.MHz); len(camp.Cells) != want {
		t.Fatalf("re-measure produced %d cells, want %d", len(camp.Cells), want)
	}
}

// TestStoreFlightAnnotation pins the serving layer's attribution contract:
// the store fills the caller's FlightInfo with how the campaign was
// obtained — led, coalesced (with the leader's request ID), or already
// done — and the measurement context carries the leader's request ID.
func TestStoreFlightAnnotation(t *testing.T) {
	e := &storeEntry{}
	camp := &Campaign{}
	started := make(chan struct{})
	release := make(chan struct{})
	var leaderCtxID atomic.Value

	var lead obs.FlightInfo
	lctx := obs.WithFlightInfo(obs.WithRequestID(context.Background(), "req-leader"), &lead)
	ldone := make(chan error, 1)
	go func() {
		_, err := e.get(lctx, func(mctx context.Context) (*Campaign, error) {
			leaderCtxID.Store(obs.RequestIDFrom(mctx))
			close(started)
			<-release
			return camp, nil
		})
		ldone <- err
	}()
	<-started

	var ride obs.FlightInfo
	wctx := obs.WithFlightInfo(obs.WithRequestID(context.Background(), "req-waiter"), &ride)
	wdone := make(chan error, 1)
	go func() {
		_, err := e.get(wctx, func(context.Context) (*Campaign, error) {
			t.Error("a waiter ran the measurement")
			return nil, nil
		})
		wdone <- err
	}()
	// Wait for the waiter to register on the flight before releasing it.
	for {
		e.mu.Lock()
		joined := e.flight != nil && e.flight.waiters == 2
		e.mu.Unlock()
		if joined {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-ldone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-wdone; err != nil {
		t.Fatalf("waiter: %v", err)
	}

	if lead.Mode != obs.FlightLed {
		t.Errorf("leader mode = %q, want led", lead.Mode)
	}
	if ride.Mode != obs.FlightCoalesced || ride.Leader != "req-leader" {
		t.Errorf("waiter = %q/%q, want coalesced/req-leader", ride.Mode, ride.Leader)
	}
	if got := leaderCtxID.Load(); got != "req-leader" {
		t.Errorf("measurement context carried request ID %v, want req-leader", got)
	}

	var after obs.FlightInfo
	if _, err := e.get(obs.WithFlightInfo(context.Background(), &after), nil); err != nil {
		t.Fatalf("post-completion get: %v", err)
	}
	if after.Mode != obs.FlightDone {
		t.Errorf("post-completion mode = %q, want done", after.Mode)
	}
}
