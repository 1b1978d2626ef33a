// Package rng provides deterministic, splittable random number streams.
//
// Every stochastic component of the simulator draws from a Stream derived
// from a single root seed and a label path (for example
// "problem/aime24/7/beam/3"). Two runs with the same root seed therefore
// produce bit-identical results, and changing the sampling order in one
// component cannot perturb another — a property the algorithmic-equivalence
// tests rely on.
//
// A Stream is single-owner mutable state: it is not safe for concurrent
// use, and its outputs depend on the call sequence. Components that run
// on parallel workers (the fleet's device loops on shard workers) each own
// their private streams, derived once at construction; fleet-global
// streams (the router's, the controller's) live on the driver goroutine
// and are advanced only by the deterministic event order — which is how
// runs on parallel shards reproduce single-shard runs bit for bit.
package rng

import (
	"math"
	"math/rand/v2"
	"strconv"
)

// FNV-1a 64-bit constants (hash/fnv), inlined so stream derivation needs
// no hasher allocation and no materialized path strings: because FNV-1a
// consumes bytes sequentially, each stream carries its hash state and a
// child extends it with just the separator and label bytes — the exact
// hash the old full-path rehash produced, at O(label) cost.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// Stream is a deterministic random stream. The zero value is not usable;
// construct streams with New or Stream.Child.
type Stream struct {
	seed  uint64
	hash  uint64  // FNV-1a state over seed bytes + label path
	label string  // this stream's own path segment ("" for the root)
	up    *Stream // parent, for lazy Path reconstruction
	pcg   rand.PCG
	rand  *rand.Rand
}

// New returns the root stream for the given seed.
func New(seed uint64) *Stream {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(seed>>(8*i)))
	}
	return fromState(seed, h, "", nil)
}

// fromState finishes a derivation: h is the FNV-1a state over the seed
// bytes and full label path. A second, independent word is drawn for the
// PCG state by extending the hash with a fixed suffix.
func fromState(seed, h uint64, label string, up *Stream) *Stream {
	s1 := h
	s2 := fnvByte(fnvByte(fnvByte(fnvByte(h, 0x9e), 0x37), 0x79), 0xb9)
	s := &Stream{seed: seed, hash: h, label: label, up: up}
	s.pcg = *rand.NewPCG(s1, s2)
	s.rand = rand.New(&s.pcg)
	return s
}

// Child derives an independent stream for the given label. Children with
// distinct labels are statistically independent; the same label always
// yields the same stream regardless of how many values the parent has
// consumed.
func (s *Stream) Child(label string) *Stream {
	return fromState(s.seed, fnvString(fnvByte(s.hash, '/'), label), label, s)
}

// ChildN is Child(label + "/" + decimal n) without building the label
// string — the allocation-free spelling of the hot indexed derivations
// (per-problem, per-beam, per-request streams).
func (s *Stream) ChildN(label string, n int) *Stream {
	h := fnvString(fnvByte(s.hash, '/'), label)
	h = fnvByte(h, '/')
	var buf [20]byte
	for _, b := range strconv.AppendInt(buf[:0], int64(n), 10) {
		h = fnvByte(h, b)
	}
	return fromState(s.seed, h, label, s)
}

// Path returns the label path of the stream (for diagnostics). It is
// reconstructed lazily from the parent chain; indexed segments from
// ChildN omit the index.
func (s *Stream) Path() string {
	if s.up == nil {
		return s.label
	}
	return s.up.Path() + "/" + s.label
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.rand.Float64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) IntN(n int) int { return s.rand.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.rand.Uint64() }

// Norm returns a normally distributed value with the given mean and
// standard deviation.
func (s *Stream) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.rand.NormFloat64()
}

// LogNormal returns a lognormally distributed value: exp(N(mu, sigma)).
// mu and sigma are the parameters of the underlying normal.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Norm(mu, sigma))
}

// NormClamped returns a normal sample clamped into [lo, hi].
func (s *Stream) NormClamped(mean, stddev, lo, hi float64) float64 {
	v := s.Norm(mean, stddev)
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: non-positive exponential rate")
	}
	return -math.Log(1-s.rand.Float64()) / rate
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.rand.Float64() < p }

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.rand.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.rand.Shuffle(n, swap) }

// Zipf returns a Zipf-ish sample over [0, n): index k is drawn with
// probability proportional to 1/(k+1)^a. Used to scatter wrong answers so
// that majority voting is meaningful.
func (s *Stream) Zipf(n int, a float64) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF over the (small) discrete support.
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), a)
	}
	u := s.Float64() * total
	acc := 0.0
	for k := 0; k < n; k++ {
		acc += 1 / math.Pow(float64(k+1), a)
		if u < acc {
			return k
		}
	}
	return n - 1
}
