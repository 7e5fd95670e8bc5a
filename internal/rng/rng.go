// Package rng provides small, fast, deterministic pseudo-random streams.
//
// Every source of randomness in the simulator is a named splitmix64
// stream keyed by a string (application, thread, phase, ...). Two runs of
// the same experiment therefore produce bit-identical results, which lets
// tests assert exact counter values and makes every figure in
// EXPERIMENTS.md reproducible.
package rng

// Stream is a splitmix64 generator. The zero value is a valid stream
// seeded with 0; prefer New or Derive for independent streams.
type Stream struct {
	state uint64
}

// New returns a stream seeded with the given value.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// NewNamed returns a stream whose seed is derived from a string key using
// the FNV-1a hash. Streams with distinct names are statistically
// independent for simulation purposes.
func NewNamed(name string) *Stream {
	return New(hashString(name))
}

// Derive returns a new independent stream keyed by this stream's current
// state and the given label. The parent stream is not advanced.
func (s *Stream) Derive(label string) *Stream {
	return New(s.state ^ hashString(label) ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). It panics if n == 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return s.Uint64() % n
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}

// Geometric returns a sample from a geometric distribution with mean m
// (m >= 1): the number of trials until first success with p = 1/m.
// Useful for run lengths of streaming bursts.
func (s *Stream) Geometric(m float64) int {
	if m <= 1 {
		return 1
	}
	p := 1.0 / m
	n := 1
	for !s.Bool(p) && n < 1<<20 {
		n++
	}
	return n
}

func hashString(s string) uint64 {
	// FNV-1a, 64 bit.
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	if h == 0 {
		h = offset
	}
	return h
}
