package rng

import "math"

// golden is the 64-bit golden-ratio constant used by splitmix64.
const golden = 0x9e3779b97f4a7c15

// mix is the splitmix64 finalizer: a bijective mixing function with good
// avalanche behaviour. It is the basis for both seeding and stream splitting.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive combines a base seed with a sequence of tags into a new seed that is
// statistically independent of the base and of any Derive call with a
// different tag sequence. It is the stream-splitting primitive used to give
// every device, every protocol phase, and every Local-Broadcast call its own
// private randomness.
func Derive(seed uint64, tags ...uint64) uint64 {
	h := mix(seed + golden)
	for _, t := range tags {
		h = Extend(h, t)
	}
	return h
}

// Extend appends one tag to a derived seed: Derive(s, t1, ..., tk, t) ==
// Extend(Derive(s, t1, ..., tk), t). A caller deriving many seeds that
// share a tag prefix derives the prefix once and extends it, paying two
// mixing rounds per seed instead of two per tag plus one.
func Extend(h, tag uint64) uint64 {
	return mix(h ^ mix(tag+golden))
}

// Source is a deterministic PRNG implementing xoshiro256++. The zero value is
// not usable; construct with New.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed via splitmix64 expansion.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the source to the stream determined by seed.
func (r *Source) Reseed(seed uint64) {
	z := seed
	next := func() uint64 {
		z += golden
		return mix(z)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = golden // all-zero state is a fixed point of xoshiro
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand; all in-repo callers pass validated positive bounds.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // modulo bias is negligible for n << 2^64
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an Exponential random variate with rate beta (mean 1/beta),
// matching the δ_v ~ Exponential(β) draws of the MPX clustering algorithm.
// It panics if beta <= 0.
func (r *Source) Exp(beta float64) float64 {
	if beta <= 0 {
		panic("rng: Exp called with non-positive rate")
	}
	u := r.Float64()
	// 1-u is in (0, 1], so the logarithm is finite.
	return -math.Log(1-u) / beta
}

// GeometricSlot returns a slot t >= 1 with P(t = k) = 2^-k for k < max and
// all remaining mass on max. This is the Decay transmission-slot
// distribution of Lemma 2.4: P(X_u = t) >= 2^-t.
func (r *Source) GeometricSlot(max int) int {
	if max <= 1 {
		return 1
	}
	t := 1
	for t < max && r.Uint64()&1 == 1 {
		t++
	}
	return t
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
