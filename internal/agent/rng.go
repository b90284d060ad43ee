package agent

import "math"

// RNG is a small counter-based pseudo-random generator (SplitMix64 core).
// BRACE needs per-agent, per-tick randomness that is *independent of
// processing order*: the same agent must draw the same sequence whether its
// partition runs on worker 3 of 36 or as the only one. Seeding a stream from (simulation seed, tick, agent ID) gives
// exactly that, which is what makes the determinism tests exact.
type RNG struct {
	state uint64
}

// NewRNG derives a stream from the simulation seed, tick number and agent
// ID. Mixing through splitmix steps decorrelates nearby (tick, id) pairs.
func NewRNG(seed uint64, tick uint64, id ID) *RNG {
	r := SeedRNG(seed, tick, id)
	return &r
}

// SeedRNG is NewRNG by value: the engines re-seed one reused RNG per
// update instead of heap-allocating a fresh generator for every agent on
// every tick. The stream is identical to NewRNG's.
func SeedRNG(seed uint64, tick uint64, id ID) RNG {
	s := mix(seed ^ mix(tick+0x9e3779b97f4a7c15))
	s = mix(s ^ mix(uint64(id)+0xbf58476d1ce4e5b9))
	return RNG{state: s}
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("agent: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal deviate (Box–Muller; one value per call,
// the spare is discarded to keep the stream layout simple and stable).
func (r *RNG) Norm() float64 {
	// Guard against log(0).
	u := 1 - r.Float64()
	v := r.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// HashID derives a deterministic child agent ID from a parent and a per-tick
// sequence number, for spawning without a global (order-dependent) counter.
func HashID(parent ID, tick uint64, seq int) ID {
	h := mix(uint64(parent) ^ mix(tick) ^ mix(uint64(seq)+0x94d049bb133111eb))
	// Keep the high bit set so spawned IDs never collide with the dense
	// low-numbered IDs assigned at initialization.
	return ID(h | 1<<63)
}
