// Package npb implements the NAS Parallel Benchmark kernels the paper
// evaluates — EP (embarrassingly parallel), FT (3-D FFT PDE solver) and LU
// (SSOR wavefront solver) — on the virtual-time MPI runtime.
//
// Each kernel performs its real numerical computation (so results are
// verifiable: EP's Gaussian-deviate tallies are invariant under the rank
// count, FT's checksums match the serial run bit for bit, LU converges to a
// manufactured solution) while accounting an analytic instruction mix to
// the timing model. A Scale knob lets a laptop-sized array stand in for a
// full NAS class: compute counts and message byte counts are multiplied by
// Scale, so the computation/communication balance of the large class is
// preserved without its memory footprint.
package npb

import "fmt"

// randlc is the NPB pseudorandom number generator: the linear congruential
// sequence x_{k+1} = a·x_k mod 2^46, returning x_k·2^-46 in (0,1). Both the
// multiplier and the state are 46-bit integers carried in uint64, which is
// exact (a·x fits in 92 bits, computed in two halves like the Fortran
// original).
type randlc struct {
	seed uint64
}

// mod46 masks to 46 bits.
const mod46 = (uint64(1) << 46) - 1

// defaultA is the NPB multiplier 5^13.
const defaultA = uint64(1220703125)

// defaultSeed is the NPB initial seed 271828183.
const defaultSeed = uint64(271828183)

// mul46 returns a·b mod 2^46 without overflow: split a into 23-bit halves.
func mul46(a, b uint64) uint64 {
	a1 := a >> 23
	a2 := a & ((1 << 23) - 1)
	// a·b = a1·2^23·b + a2·b. Both products fit in 64 bits after the first
	// is reduced mod 2^23 (higher bits fall off 2^46 anyway).
	t := (a1 * b) & ((1 << 23) - 1)
	return (t<<23 + a2*b) & mod46
}

// next returns the next deviate in (0,1) and advances the state.
func (r *randlc) next() float64 {
	r.seed = mul46(defaultA, r.seed)
	return float64(r.seed) * (1.0 / float64(uint64(1)<<46))
}

// powA returns a^n mod 2^46 by binary exponentiation; used to jump a stream
// ahead so each rank generates its own disjoint section, as NPB's EP does.
func powA(a uint64, n uint64) uint64 {
	result := uint64(1)
	base := a & mod46
	for n > 0 {
		if n&1 == 1 {
			result = mul46(result, base)
		}
		base = mul46(base, base)
		n >>= 1
	}
	return result
}

// newRandlc returns a generator seeded at the NPB default jumped ahead by
// skip deviates.
func newRandlc(skip uint64) *randlc {
	return &randlc{seed: mul46(powA(defaultA, skip), defaultSeed)}
}

// checkPow2 returns an error unless v is a positive power of two.
func checkPow2(name string, v int) error {
	if v <= 0 || v&(v-1) != 0 {
		return fmt.Errorf("npb: %s = %d, want positive power of two", name, v)
	}
	return nil
}
