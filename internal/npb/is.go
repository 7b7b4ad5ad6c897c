package npb

import (
	"fmt"
	"math"

	"pasp/internal/machine"
	"pasp/internal/mpi"
)

// IS is the NAS integer-sort kernel: bucket-sort 2^LogKeys integer keys
// drawn from the NPB near-Gaussian distribution (each key is the average of
// four uniform deviates). Each iteration histograms the local keys,
// combines the histogram with an allreduce, splits the bucket space into
// near-equal shares, redistributes the keys with a personalized all-to-all
// exchange and counting-sorts the received range. IS contributes the
// suite's integer-dominated, communication-heavy profile with *skewed*
// exchange volumes — unlike FT's uniform transpose, the central ranks
// receive more data than the edge ranks.
type IS struct {
	// LogKeys is the total key count exponent: 2^LogKeys keys, divided
	// evenly over ranks (the rank count must divide the key count).
	LogKeys int
	// LogMaxKey is the key-range exponent: keys lie in [0, 2^LogMaxKey).
	LogMaxKey int
	// Buckets is the bucket count for the histogram split; 0 selects 1024.
	Buckets int
	// Iters is the number of sort iterations.
	Iters int
	// ScaleLog inflates the timed workload and exchange sizes by
	// 2^ScaleLog (class A is LogKeys 23 at full scale).
	ScaleLog int
}

// Per-key instruction mixes. Keys stream from memory; the bucket count
// array lives in cache.
const (
	isHistReg = 4.0
	isHistL1  = 2.0
	isHistMem = 0.15
	isSortReg = 6.0
	isSortL1  = 4.0
	isSortL2  = 1.0
	isSortMem = 0.3
)

// ISResult is the kernel's verifiable outcome.
type ISResult struct {
	// Sorted reports whether the final global order was verified: every
	// rank's keys sorted, ranges non-overlapping across ranks, and the key
	// count conserved.
	Sorted bool
	// KeySum is the sum of all keys (conserved across redistribution).
	KeySum float64
	// MaxImbalance is the largest per-rank key share relative to the even
	// share in the final distribution.
	MaxImbalance float64
}

func (is IS) buckets() int {
	if is.Buckets == 0 {
		return 1024
	}
	return is.Buckets
}

// Validate reports an error for unusable parameters on n ranks.
func (is IS) Validate(n int) error {
	if is.LogKeys < 4 || is.LogKeys > 30 {
		return fmt.Errorf("npb: IS LogKeys %d, want 4..30", is.LogKeys)
	}
	if is.LogMaxKey < 4 || is.LogMaxKey > 30 {
		return fmt.Errorf("npb: IS LogMaxKey %d, want 4..30", is.LogMaxKey)
	}
	if is.Iters < 1 {
		return fmt.Errorf("npb: IS Iters %d, want ≥ 1", is.Iters)
	}
	if b := is.buckets(); b < n || b&(b-1) != 0 {
		return fmt.Errorf("npb: IS buckets %d must be a power of two ≥ ranks", b)
	}
	if (1<<uint(is.LogKeys))%n != 0 {
		return fmt.Errorf("npb: IS %d keys not divisible by %d ranks", 1<<uint(is.LogKeys), n)
	}
	if is.ScaleLog < 0 || is.ScaleLog > 30 {
		return fmt.Errorf("npb: IS ScaleLog %d out of range", is.ScaleLog)
	}
	return nil
}

// Run executes IS on the world.
func (is IS) Run(w mpi.World) (ISResult, *mpi.Result, error) {
	if err := is.Validate(w.N); err != nil {
		return ISResult{}, nil, err
	}
	var out ISResult
	res, err := mpi.Run(w, func(c *mpi.Ctx) error {
		r, err := is.rank(c)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = r
		}
		return nil
	})
	if err != nil {
		return ISResult{}, nil, err
	}
	return out, res, nil
}

func (is IS) rank(c *mpi.Ctx) (ISResult, error) {
	n, rank := c.Size(), c.Rank()
	total := 1 << uint(is.LogKeys)
	perRank := total / n
	maxKey := 1 << uint(is.LogMaxKey)
	nb := is.buckets()
	scale := math.Ldexp(1, is.ScaleLog)

	// Generate this rank's block of keys: key g consumes four deviates at
	// stream offset 4g, so the global key sequence is decomposition
	// invariant.
	c.SetPhase("is-keygen")
	keys := make([]float64, perRank)
	rng := newRandlc(uint64(4 * rank * perRank))
	for i := range keys {
		sum := rng.next() + rng.next() + rng.next() + rng.next()
		keys[i] = math.Floor(sum / 4 * float64(maxKey))
	}
	kf := float64(perRank)
	if err := c.Compute(machine.W(kf*8*scale, kf*4*scale, 0, kf*0.2*scale)); err != nil {
		return ISResult{}, err
	}
	var keySum float64
	for _, k := range keys {
		keySum += k
	}

	bucketShift := uint(is.LogMaxKey) - uint(math.Log2(float64(nb)))
	var imbalance float64
	// Per-iteration scratch, reused across sort iterations: the histogram,
	// the per-destination exchange parts (Alltoall snapshots them at deposit
	// time) and the counting-sort array.
	hist := make([]float64, nb)
	parts := make([][]float64, n)
	var counts []int
	for it := 0; it < is.Iters; it++ {
		// Local histogram.
		c.SetPhase("is-histogram")
		for i := range hist {
			hist[i] = 0
		}
		for _, k := range keys {
			hist[int(k)>>bucketShift]++
		}
		if err := c.Compute(machine.W(kf*isHistReg*scale, kf*isHistL1*scale, 0, kf*isHistMem*scale)); err != nil {
			return ISResult{}, err
		}

		// Global histogram and bucket→rank split.
		c.SetPhase("is-allreduce")
		global, err := c.Allreduce(hist, mpi.Sum, int(float64(nb*8)*scale))
		if err != nil {
			return ISResult{}, err
		}
		owner := splitBuckets(global, n)

		// Redistribute keys to their owners.
		c.SetPhase("is-exchange")
		for d := range parts {
			parts[d] = parts[d][:0]
		}
		for _, k := range keys {
			d := owner[int(k)>>bucketShift]
			parts[d] = append(parts[d], k)
		}
		maxPart := 0
		for d, p := range parts {
			if d != rank && len(p) > maxPart {
				maxPart = len(p)
			}
		}
		recv, err := c.Alltoall(parts, int(float64(maxPart*8)*scale))
		if err != nil {
			return ISResult{}, err
		}
		keys = keys[:0]
		for _, p := range recv {
			keys = append(keys, p...)
			c.Free(p)
		}

		// Counting sort of the received range.
		c.SetPhase("is-sort")
		lo, hi := keyRange(owner, rank, bucketShift)
		if cap(counts) < hi-lo {
			counts = make([]int, hi-lo)
		}
		counts = counts[:hi-lo]
		for i := range counts {
			counts[i] = 0
		}
		for _, k := range keys {
			ki := int(k)
			if ki < lo || ki >= hi {
				return ISResult{}, fmt.Errorf("npb: IS key %d outside owned range [%d,%d)", ki, lo, hi)
			}
			counts[ki-lo]++
		}
		keys = keys[:0]
		for v, cnt := range counts {
			for j := 0; j < cnt; j++ {
				keys = append(keys, float64(lo+v))
			}
		}
		sf := float64(len(keys))
		if err := c.Compute(machine.W(sf*isSortReg*scale, sf*isSortL1*scale, sf*isSortL2*scale, sf*isSortMem*scale)); err != nil {
			return ISResult{}, err
		}
		if total > 0 && n > 0 {
			if share := sf / (float64(total) / float64(n)); share > imbalance {
				imbalance = share
			}
		}
	}

	// Verification: local sortedness, global range ordering, conservation.
	c.SetPhase("is-verify")
	sorted := true
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			sorted = false
			break
		}
	}
	myMin, myMax := math.Inf(1), math.Inf(-1)
	if len(keys) > 0 {
		myMin, myMax = keys[0], keys[len(keys)-1]
	}
	// Gather boundaries so every rank checks the global order.
	bounds, err := c.Allgather([]float64{myMin, myMax, boolToF(sorted), float64(len(keys))}, 32)
	if err != nil {
		return ISResult{}, err
	}
	allSorted := true
	prevMax := math.Inf(-1)
	var totalKeys float64
	for _, b := range bounds {
		if b[2] == 0 {
			allSorted = false
		}
		if b[3] > 0 {
			if b[0] < prevMax {
				allSorted = false
			}
			prevMax = b[1]
		}
		totalKeys += b[3]
	}
	//palint:ignore floateq -- key counts are integer-valued floats carried through Allgather; conservation must be exact
	if totalKeys != float64(total) {
		allSorted = false
	}
	var localSum float64
	for _, k := range keys {
		localSum += k
	}
	sums, err := c.Allreduce([]float64{localSum, keySum}, mpi.Sum, 16)
	if err != nil {
		return ISResult{}, err
	}
	if math.Abs(sums[0]-sums[1]) > 1e-6 {
		allSorted = false
	}
	imbAll, err := c.Allreduce([]float64{imbalance}, mpi.Max, 8)
	if err != nil {
		return ISResult{}, err
	}
	return ISResult{Sorted: allSorted, KeySum: sums[0], MaxImbalance: imbAll[0]}, nil
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// splitBuckets assigns each bucket to a rank so cumulative key counts are
// near-even: rank d owns the buckets whose prefix sum falls in its share.
func splitBuckets(global []float64, n int) []int {
	total := 0.0
	for _, g := range global {
		total += g
	}
	owner := make([]int, len(global))
	if total == 0 {
		return owner // no keys anywhere: rank 0 owns every (empty) bucket
	}
	cum := 0.0
	for b, g := range global {
		// Midpoint rule keeps single giant buckets stable.
		mid := cum + g/2
		d := int(mid / total * float64(n))
		if d >= n {
			d = n - 1
		}
		owner[b] = d
		cum += g
	}
	// Owners must be non-decreasing so each rank's key range is contiguous.
	for b := 1; b < len(owner); b++ {
		if owner[b] < owner[b-1] {
			owner[b] = owner[b-1]
		}
	}
	return owner
}

// keyRange returns the half-open key interval covered by rank's buckets.
//
//palint:hotpath
func keyRange(owner []int, rank int, shift uint) (lo, hi int) {
	lo, hi = -1, -1
	for b, d := range owner {
		if d == rank {
			if lo < 0 {
				lo = b << shift
			}
			hi = (b + 1) << shift
		}
	}
	if lo < 0 {
		// Rank owns no buckets: empty range.
		return 0, 0
	}
	return lo, hi
}
