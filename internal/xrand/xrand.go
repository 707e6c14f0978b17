// Package xrand provides a deterministic, splittable pseudo-random number
// generator with the samplers needed by the churn model: exponential,
// uniform, normal, Poisson and Weibull variates.
//
// The generator is xoshiro256** seeded through SplitMix64, following the
// reference constructions by Blackman and Vigna. It is intentionally
// self-contained (no math/rand) so that simulation results are bit-stable
// across Go releases, and streams can be split hierarchically: every
// Monte-Carlo replication owns an independent stream derived from
// (root seed, replication index), which makes results independent of the
// number of worker goroutines used to run them.
package xrand

import "math"

// Rand is a xoshiro256** generator. It is not safe for concurrent use;
// derive one stream per goroutine with NewStream or Split.
type Rand struct {
	s [4]uint64
}

// splitMix64 advances x and returns a well-mixed 64-bit value. It is the
// recommended seeder for xoshiro state.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds give streams
// that are, for all simulation purposes, independent.
func New(seed uint64) *Rand {
	r := &Rand{}
	x := seed
	for i := range r.s {
		r.s[i] = splitMix64(&x)
	}
	// xoshiro must not start from the all-zero state; splitMix64 cannot
	// produce four zero words from any seed, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// NewStream returns a generator for sub-stream i of the given root seed.
// Streams with different (seed, i) pairs are independent; the construction
// hashes both through SplitMix64 so that consecutive indices do not yield
// correlated states.
func NewStream(seed, i uint64) *Rand {
	x := seed
	a := splitMix64(&x)
	x = a ^ (i+1)*0xd1342543de82ef95
	return New(splitMix64(&x))
}

// Split derives a new independent generator from r, advancing r.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// positiveFloat64 returns a uniform variate in (0, 1], suitable as the
// argument of a logarithm.
func (r *Rand) positiveFloat64() float64 {
	return 1.0 - r.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0; callers model "event never happens" by omitting
// the event, not by passing rate 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	return -math.Log(r.positiveFloat64()) / rate
}

// ExpMean returns an exponential variate with the given mean.
func (r *Rand) ExpMean(mean float64) float64 {
	if mean <= 0 {
		panic("xrand: ExpMean with non-positive mean")
	}
	return -math.Log(r.positiveFloat64()) * mean
}

// Normal returns a standard normal variate (Box–Muller, polar form
// avoided for determinism of consumed entropy: exactly two uniforms).
func (r *Rand) Normal() float64 {
	u1 := r.positiveFloat64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Poisson returns a Poisson variate with the given mean using inversion
// for small means and the PTRS transformed-rejection method cut-down
// (normal approximation with continuity correction) for large means.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		// Knuth inversion.
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Normal approximation with continuity correction; adequate for the
	// workload-arrival extension where mean is large and tails do not
	// drive any reported statistic.
	v := mean + math.Sqrt(mean)*r.Normal()
	if v < 0 {
		return 0
	}
	return int(v + 0.5)
}

// Weibull returns a Weibull variate with the given shape k and scale λ.
// Used by the non-exponential failure-law extension.
func (r *Rand) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("xrand: Weibull with non-positive parameter")
	}
	return scale * math.Pow(-math.Log(r.positiveFloat64()), 1/shape)
}

// MixSeed derives sub-stream s of a root seed through a SplitMix64-style
// finalizer — the seed layout every deterministic fan-out in the module
// shares: Monte-Carlo replications mix their replication index, and the
// sharded simulator mixes its failure-domain index, so stream consumption
// is stable under any worker or shard count. serve.MixSeed delegates
// here; the two must stay bit-identical.
func MixSeed(seed uint64, s int) uint64 {
	x := seed ^ (uint64(s)+1)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}
