package sim

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random stream. Every stochastic component of the
// simulation (oscillator skew, CDC delays, traffic arrivals, ...) owns its
// own RNG derived from the run seed and a component label, so adding or
// removing one component never perturbs the randomness seen by another.
type RNG struct {
	*rand.Rand
}

// NewRNG derives an independent stream from a run seed and a label.
func NewRNG(seed uint64, label string) *RNG {
	h := fnv.New64a()
	// The label keys the stream; mixing the seed in twice (pre and post)
	// avoids trivial collisions between (seed, label) pairs.
	var buf [8]byte
	putUint64(buf[:], seed)
	h.Write(buf[:])
	h.Write([]byte(label))
	s2 := h.Sum64()
	return &RNG{rand.New(rand.NewPCG(seed, s2))}
}

// Fork derives a sub-stream, e.g. one per port of a device.
func (r *RNG) Fork(label string) *RNG {
	return NewRNG(r.Uint64(), label)
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Uniform returns a float uniformly distributed in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// UniformTime returns a Time uniformly distributed in [lo, hi].
func (r *RNG) UniformTime(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(r.Int64N(int64(hi-lo)+1))
}

// Normal returns a normally distributed float with the given mean and
// standard deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)). Used for long-tailed latency models
// (PCIe reads, software network stacks).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// ExpTime returns an exponentially distributed Time with the given mean,
// clamped to at least 1 ps so event time strictly advances.
func (r *RNG) ExpTime(mean Time) Time {
	d := Time(r.ExpFloat64() * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}
