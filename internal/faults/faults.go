// Package faults is the deterministic chaos harness: a seed-driven
// perturbation engine the simulation layers consult to model an imperfect
// cluster — per-message latency jitter, transient bandwidth degradation,
// dropped messages with timeout/retry and persistent straggler ranks.
//
// The paper's models assume a perfect platform: homogeneous quiet nodes
// (Assumption 1's uniform decomposition) and frequency-independent,
// noise-free parallel overhead (Assumption 2). Real clusters violate both,
// and the interesting question for the reproduction is *how fast* the SP and
// FP predictions degrade as the platform departs from those assumptions.
// This package supplies the departure, with two hard requirements:
//
//  1. Determinism. Every draw is a pure function of (Seed, rank, event
//     index): a counter-based PRNG built on the SplitMix64 avalanche
//     function, never math/rand global state. Identical seeds produce
//     bit-identical perturbations — and therefore bit-identical traces —
//     regardless of GOMAXPROCS or goroutine scheduling, because each rank
//     owns its stream and ranks draw in their own deterministic program
//     order.
//  2. Zero-value transparency. A zero Config reports Enabled() == false and
//     the mpi layer then never creates a Rank injector; the hot path guards
//     on a nil pointer and performs no draw, no allocation and no arithmetic
//     change, so fault-free simulations stay bit-identical to the golden
//     reproduction numbers.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"pasp/internal/units"
)

// Config holds the perturbation knobs. The zero value disables every fault.
// All knobs are independent: a robustness sweep usually scales one axis
// (see Scale) while pinning the rest.
type Config struct {
	// Seed keys every pseudo-random draw. Two configs that differ only in
	// Seed produce different perturbation sequences of identical statistics.
	Seed uint64

	// LatencyJitterFrac adds, to every received point-to-point message, a
	// uniform extra delay in [0, LatencyJitterFrac)·LatencySec, and to every
	// collective a uniform extra in [0, LatencyJitterFrac)·cost. 0 disables
	// jitter.
	LatencyJitterFrac float64

	// DropProb is the per-transmission loss probability. A lost eager
	// message is redelivered after a retransmission timeout; a lost
	// rendezvous handshake retries with exponential backoff. Retries are
	// bounded by MaxRetries. 0 disables drops.
	DropProb float64
	// RetryTimeoutSec is the base retransmission timeout charged per retry;
	// retry k waits 2^k timeouts (exponential backoff). 0 means the 1 ms
	// DefaultRetryTimeout.
	RetryTimeoutSec units.Seconds
	// MaxRetries bounds the retries of one message, at most 63. 0 means
	// DefaultMaxRetries.
	MaxRetries int

	// DegradeProb is the probability that a message observes a transiently
	// degraded fabric; its serialization time is then multiplied by
	// DegradeFactor (> 1). Both must be set for degradation to act.
	DegradeProb   float64
	DegradeFactor float64

	// StragglerFrac is the probability that a rank is a persistent
	// straggler: its compute intervals are stretched by StragglerSlowdown
	// (> 1), equivalent to the node running at effective frequency
	// f/StragglerSlowdown for ON-chip work — a heterogeneous cluster. Both
	// must be set for stragglers to act. Which ranks straggle is a
	// deterministic function of (Seed, rank).
	StragglerFrac     float64
	StragglerSlowdown float64
}

// DefaultRetryTimeout is the retransmission timeout used when
// RetryTimeoutSec is zero: 1 ms, the order of a LAN TCP minimum RTO.
const DefaultRetryTimeout = units.Seconds(1e-3)

// DefaultMaxRetries is the retry bound used when MaxRetries is zero.
const DefaultMaxRetries = 3

// maxRetryLimit is the largest MaxRetries Validate accepts: the largest
// count whose 2^retries backoff (BackoffSec) fits a uint64 shift. It also
// caps the PRNG draws one dropped message can cost.
const maxRetryLimit = 63

// Ceilings on the per-event magnitudes Validate accepts; past them a
// finite knob can overflow a run to +Inf. With every knob at its ceiling
// and every message dropped down to its last retry, a message or
// collective costs at most a few million times its clean latency and wire
// time plus (2^63 − 1)·1e6 s ≈ 9.2e24 s of backoff, and a compute interval
// a million times its clean length. Even on 1024 nodes drawing 100 W each,
// such a run needs more than 1e270 messages to reach float64's 1.8e308 s
// or joules.
const (
	maxFactor       = 1e6
	maxRetryTimeout = units.Seconds(1e6)
)

// Enabled reports whether any fault knob is active.
func (c Config) Enabled() bool {
	return c.LatencyJitterFrac > 0 ||
		c.DropProb > 0 ||
		(c.DegradeProb > 0 && c.DegradeFactor > 1) ||
		(c.StragglerFrac > 0 && c.StragglerSlowdown > 1)
}

// Validate reports an error for non-physical knobs: probabilities outside
// [0,1], negative times, factors below 1, NaN anywhere, a retry bound above
// 63, and a jitter fraction, degrade factor or straggler slowdown above
// 1e6 or a retry timeout above 1e6 s, the ceilings that keep a run finite.
func (c Config) Validate() error {
	probs := map[string]float64{
		"DropProb":      c.DropProb,
		"DegradeProb":   c.DegradeProb,
		"StragglerFrac": c.StragglerFrac,
	}
	for name, p := range probs {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return fmt.Errorf("faults: %s = %g outside [0,1]", name, p)
		}
	}
	if math.IsNaN(c.LatencyJitterFrac) || c.LatencyJitterFrac < 0 || c.LatencyJitterFrac > maxFactor {
		return fmt.Errorf("faults: LatencyJitterFrac = %g, want 0..%g", c.LatencyJitterFrac, maxFactor)
	}
	if rt := float64(c.RetryTimeoutSec); math.IsNaN(rt) || rt < 0 || rt > float64(maxRetryTimeout) {
		return fmt.Errorf("faults: RetryTimeoutSec = %g, want 0..%g s", rt, float64(maxRetryTimeout))
	}
	if c.MaxRetries < 0 || c.MaxRetries > maxRetryLimit {
		return fmt.Errorf("faults: MaxRetries = %d, want 0..%d", c.MaxRetries, maxRetryLimit)
	}
	if c.DegradeFactor != 0 && (math.IsNaN(c.DegradeFactor) || c.DegradeFactor < 1 || c.DegradeFactor > maxFactor) {
		return fmt.Errorf("faults: DegradeFactor = %g, want 0 (off) or 1..%g", c.DegradeFactor, maxFactor)
	}
	if c.StragglerSlowdown != 0 && (math.IsNaN(c.StragglerSlowdown) || c.StragglerSlowdown < 1 || c.StragglerSlowdown > maxFactor) {
		return fmt.Errorf("faults: StragglerSlowdown = %g, want 0 (off) or 1..%g", c.StragglerSlowdown, maxFactor)
	}
	return nil
}

// Scale returns the config with its intensity knobs — jitter fraction and
// the three probabilities — multiplied by m (probabilities capped at 1).
// The per-event magnitudes (timeout, degrade factor, slowdown) are left
// unchanged, so a robustness sweep varies how *often* and how
// *strongly jittered* faults strike while each strike stays comparable.
// Scale(0) disables every drawn fault.
func (c Config) Scale(m float64) Config {
	if m < 0 {
		m = 0
	}
	cap1 := func(p float64) float64 {
		if p > 1 {
			return 1
		}
		return p
	}
	out := c
	out.LatencyJitterFrac = c.LatencyJitterFrac * m
	out.DropProb = cap1(c.DropProb * m)
	out.DegradeProb = cap1(c.DegradeProb * m)
	out.StragglerFrac = cap1(c.StragglerFrac * m)
	return out
}

// retryTimeout returns the effective base timeout.
func (c Config) retryTimeout() float64 {
	if c.RetryTimeoutSec > 0 {
		return float64(c.RetryTimeoutSec)
	}
	return float64(DefaultRetryTimeout)
}

// maxRetries returns the effective retry bound.
func (c Config) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return DefaultMaxRetries
}

// BackoffSec returns the total virtual time charged for retries
// retransmissions with exponential backoff: retry k waits 2^k base
// timeouts, so the sum is (2^retries − 1) timeouts.
func (c Config) BackoffSec(retries int) float64 {
	if retries <= 0 {
		return 0
	}
	return c.retryTimeout() * float64((uint64(1)<<uint(retries))-1)
}

// MsgFault is the drawn perturbation of one point-to-point message.
// The zero value is a clean delivery.
type MsgFault struct {
	// ExtraLatencySec is the jitter delay added to the message's wire
	// latency, in seconds (≥ 0).
	ExtraLatencySec float64
	// WireFactor multiplies the message's serialization time (≥ 1; 1 means
	// full bandwidth).
	WireFactor float64
	// Retries is the number of retransmissions the message suffered
	// (bounded by the config's retry limit); each is charged exponential
	// backoff via Config.BackoffSec.
	Retries int
}

// Rank is one rank's injector: a deterministic stream of perturbation draws.
// It must only be used from the rank's own goroutine (like mpi.Ctx). A nil
// *Rank is the disabled injector; callers guard with a nil check.
type Rank struct {
	cfg  Config
	key  uint64
	ctr  uint64
	slow float64
}

// Draw streams: the straggler decision is keyed off the event counter's
// stream so the per-message sequence is independent of it.
const (
	streamStraggler uint64 = iota
	streamEvent
)

// splitmix64 is the SplitMix64 finalizer: a full-avalanche bijection on
// uint64, the mixing core of the counter-based PRNG.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// mixKey derives the per-rank stream key from (seed, rank).
func mixKey(seed uint64, rank int) uint64 {
	return splitmix64(seed ^ splitmix64(uint64(rank)*0x9e3779b97f4a7c15+0x2545f4914f6cdd1d))
}

// valueAt returns the deterministic uniform in [0,1) for (key, stream,
// event): the draw depends on nothing else, which is what makes identical
// seeds give bit-identical traces.
func valueAt(key, stream, event uint64) float64 {
	v := splitmix64(key ^ splitmix64(stream*0xda942042e4dd58b5+event))
	return float64(v>>11) / (1 << 53)
}

// NewRank builds the injector for one rank. The straggler decision is drawn
// once here, keyed on (seed, rank) only, so a rank's identity as a
// straggler is stable across the whole run and across runs.
func NewRank(cfg Config, rank int) *Rank {
	r := &Rank{cfg: cfg, key: mixKey(cfg.Seed, rank), slow: 1}
	if cfg.StragglerFrac > 0 && cfg.StragglerSlowdown > 1 {
		if valueAt(r.key, streamStraggler, 0) < cfg.StragglerFrac {
			r.slow = cfg.StragglerSlowdown
		}
	}
	return r
}

// next returns the next uniform in [0,1) of the rank's event stream.
func (r *Rank) next() float64 {
	u := valueAt(r.key, streamEvent, r.ctr)
	r.ctr++
	return u
}

// Message draws the perturbation of one received message given the
// network's base one-way latency. Exactly three underlying events are
// consumed when no drop occurs (jitter, degradation, first drop trial), so
// the draw sequence — and with it every downstream perturbation — is
// invariant under pure magnitude rescaling of the jitter knob.
func (r *Rank) Message(latencySec float64) MsgFault {
	f := MsgFault{WireFactor: 1}
	f.ExtraLatencySec = r.next() * r.cfg.LatencyJitterFrac * latencySec
	if u := r.next(); r.cfg.DegradeFactor > 1 && u < r.cfg.DegradeProb {
		f.WireFactor = r.cfg.DegradeFactor
	}
	max := r.cfg.maxRetries()
	for f.Retries < max && r.next() < r.cfg.DropProb {
		f.Retries++
	}
	return f
}

// Collective draws the extra virtual time injected into one collective of
// the given unperturbed cost: uniform in [0, LatencyJitterFrac)·cost, plus
// a full-cost stretch when the fabric is transiently degraded. One or two
// events are consumed per call.
func (r *Rank) Collective(costSec float64) float64 {
	if costSec <= 0 {
		return 0
	}
	extra := r.next() * r.cfg.LatencyJitterFrac * costSec
	if u := r.next(); r.cfg.DegradeFactor > 1 && u < r.cfg.DegradeProb {
		extra += (r.cfg.DegradeFactor - 1) * costSec
	}
	return extra
}

// ComputeFactor returns the rank's persistent compute slowdown: 1 for a
// healthy rank, StragglerSlowdown for a straggler.
func (r *Rank) ComputeFactor() float64 { return r.slow }

// BackoffSec exposes the config's backoff schedule on the injector, so the
// runtime holding only the *Rank can charge retry time.
func (r *Rank) BackoffSec(retries int) float64 { return r.cfg.BackoffSec(retries) }

// ParseSpec parses the CLI chaos specification: a comma-separated list of
// key=value pairs. Keys:
//
//	seed=N            PRNG seed (uint64)
//	jitter=F          LatencyJitterFrac
//	drop=F            DropProb
//	timeout=D         RetryTimeoutSec (Go duration, e.g. 1ms)
//	retries=N         MaxRetries (at most 63)
//	degradeprob=F     DegradeProb
//	degradefactor=F   DegradeFactor
//	straggler=F       StragglerFrac
//	slowdown=F        StragglerSlowdown
//
// An empty spec returns the zero (disabled) config. The parsed config is
// validated before being returned.
func ParseSpec(spec string) (Config, error) {
	var c Config
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Config{}, fmt.Errorf("faults: spec entry %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			c.Seed, err = strconv.ParseUint(v, 10, 64)
		case "jitter":
			c.LatencyJitterFrac, err = strconv.ParseFloat(v, 64)
		case "drop":
			c.DropProb, err = strconv.ParseFloat(v, 64)
		case "timeout":
			var d time.Duration
			d, err = time.ParseDuration(v)
			c.RetryTimeoutSec = units.Seconds(d.Seconds())
		case "retries":
			c.MaxRetries, err = strconv.Atoi(v)
		case "degradeprob":
			c.DegradeProb, err = strconv.ParseFloat(v, 64)
		case "degradefactor":
			c.DegradeFactor, err = strconv.ParseFloat(v, 64)
		case "straggler":
			c.StragglerFrac, err = strconv.ParseFloat(v, 64)
		case "slowdown":
			c.StragglerSlowdown, err = strconv.ParseFloat(v, 64)
		default:
			return Config{}, fmt.Errorf("faults: unknown spec key %q", k)
		}
		if err != nil {
			return Config{}, fmt.Errorf("faults: spec %s=%s: %w", k, v, err)
		}
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
