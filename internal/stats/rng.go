// Package stats provides seeded random number generation, probability
// distributions and summary statistics used throughout the RubberBand
// simulator and planner.
//
// All randomness in the repository flows through *RNG so that simulations,
// plans and end-to-end experiments are fully deterministic for a given
// seed. The generator is a splitmix64-seeded xoshiro256** variant, chosen
// for statistical quality, speed and trivial reproducibility without any
// dependence on math/rand global state.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator. The zero value is
// not valid; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns a well-mixed output. It is
// used only to expand a user seed into the xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from seed. Two RNGs built from the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed expands seed into r's state.
func (r *RNG) seed(seed uint64) {
	for i := range r.s {
		r.s[i] = splitmix64(&seed)
	}
}

// Split derives a new independent generator from r, consuming exactly one
// draw from r to seed the child. The child is a deterministic function of
// r's state at the moment of the call; after that the two streams evolve
// separately — advancing the child never perturbs the parent, and advancing
// the parent never perturbs the child. Because the seed passes through
// splitmix64 expansion, the child's output sequence is statistically
// independent of and non-overlapping with the parent's subsequent output
// (see TestSplitGoldenNonOverlap). Use Split to give each simulated
// component its own stream so that adding draws in one component cannot
// shift the sequence observed by another. Split mutates r and is therefore
// not safe for concurrent use; derive streams with Stream when multiple
// goroutines need them.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Stream returns the i-th child generator derived from r's current state.
// Unlike Split, Stream does not advance r: it is a pure function of the
// receiver's state and i, so for a fixed parent state Stream(i) always
// denotes the same sequence no matter how many streams are derived, in
// what order, or from which goroutines. Distinct indices yield mutually
// independent streams that are also independent of the parent's own
// output. Stream is safe for concurrent use as long as no goroutine
// advances r itself.
func (r *RNG) Stream(i uint64) *RNG {
	c := &RNG{}
	r.StreamInto(i, c)
	return c
}

// StreamInto writes the i-th child generator of r (the generator Stream(i)
// returns) into dst, a value the caller owns, so Monte-Carlo loops that
// derive one stream per draw reuse one generator instead of allocating
// each. dst may be r itself.
//
//rbvet:noalloc
func (r *RNG) StreamInto(i uint64, dst *RNG) {
	h := i
	for _, w := range r.s {
		h = splitmix64(&h) ^ w
	}
	dst.seed(splitmix64(&h))
}

// State returns the generator's 256-bit internal state — the stream
// cursor control-plane snapshots capture. Restoring a cursor is
// deliberately not provided: recovery re-executes the run from its seed
// and verifies the rebuilt cursor matches the snapshot, rather than
// splicing generator state.
func (r *RNG) State() [4]uint64 { return r.s }

// Hash64 folds the given words into one well-distributed 64-bit value via
// repeated splitmix64 rounds. Callers use it to derive Stream indices from
// structured keys (for example a plan's allocation vector) so that every
// distinct key selects a distinct, deterministic stream family.
func Hash64(words ...uint64) uint64 {
	h := 0x9e3779b97f4a7c15 ^ uint64(len(words))
	for _, w := range words {
		h = splitmix64(&h) ^ w
	}
	return splitmix64(&h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	// Use the top 53 bits for a uniform double in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Ziggurat tables for NormFloat64 (Doornik's ZIGNOR layout, 128 layers),
// built once at init from the closed-form recursion. The rectangle test
// accepts ~98% of draws with one Uint64 and two multiplies, keeping
// math.Log/Exp off the Monte-Carlo hot path entirely except in the wedges
// and the tail.
const (
	zigR = 3.442619855899      // start of the distribution's right tail
	zigV = 9.91256303526217e-3 // area of each layer
)

var (
	zigX     [129]float64 // layer x-coordinates; zigX[0] = V/f(R), zigX[128] = 0
	zigRatio [128]float64 // zigX[i+1]/zigX[i]: the rectangle acceptance bound
)

func init() {
	f := math.Exp(-0.5 * zigR * zigR)
	zigX[0] = zigV / f
	zigX[1] = zigR
	for i := 2; i < 128; i++ {
		x2 := -2 * math.Log(zigV/zigX[i-1]+f)
		zigX[i] = math.Sqrt(x2)
		f = math.Exp(-0.5 * x2)
	}
	zigX[128] = 0
	for i := 0; i < 128; i++ {
		zigRatio[i] = zigX[i+1] / zigX[i]
	}
}

// NormFloat64 returns a standard normally distributed value (mean 0,
// stddev 1) using the ziggurat method. One 64-bit draw supplies both the
// layer index (low 7 bits) and the signed uniform (top 53 bits).
func (r *RNG) NormFloat64() float64 {
	for {
		bits := r.Uint64()
		i := bits & 127
		u := float64(bits>>11)/(1<<52) - 1 // uniform in [-1, 1)
		if u < zigRatio[i] && u > -zigRatio[i] {
			return u * zigX[i]
		}
		if i == 0 {
			// Bottom layer: sample the tail beyond zigR by rejection.
			neg := u < 0
			for {
				x := -math.Log(r.Float64()) / zigR
				y := -math.Log(r.Float64())
				if y+y >= x*x {
					if neg {
						return -(zigR + x)
					}
					return zigR + x
				}
			}
		}
		// Wedge between the layer's rectangle and the density curve.
		x := u * zigX[i]
		f0 := math.Exp(-0.5 * (zigX[i]*zigX[i] - x*x))
		f1 := math.Exp(-0.5 * (zigX[i+1]*zigX[i+1] - x*x))
		if f1+r.Float64()*(f0-f1) < 1.0 {
			return x
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function, mirroring math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
