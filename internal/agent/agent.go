package agent

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"github.com/bigreddata/brace/internal/geom"
)

// ID uniquely identifies an agent for its whole lifetime. The engine never
// reuses IDs; spawned agents receive IDs derived deterministically from
// their parent so that runs agree at any partition count (see Spawn in
// the engine package).
type ID uint64

// Agent is one simulated individual: a= ⟨oid, s, e⟩ in the notation of
// Appendix A. The State and Effect slices are indexed by the schema.
//
// Agent is a plain value container; all behavior lives in the Model
// implementations. It is exported across packages (engine, brasil, sims) and
// serialized by checkpointing, so it holds no unexported machinery.
type Agent struct {
	ID     ID
	State  []float64
	Effect []float64
	// Dead marks the agent for removal at the next tick boundary (used by
	// the predator simulation's bite/starve dynamics).
	Dead bool
}

// New allocates an agent of the given schema with zero state and identity
// effects.
func New(s *Schema, id ID) *Agent {
	return &Agent{
		ID:     id,
		State:  make([]float64, s.NumState()),
		Effect: s.IdentityEffects(),
	}
}

// NewBlock allocates n agents of the given schema with IDs 1..n, zero
// state and identity effects: a generated population. Every agent's State
// and Effect are capped segments (s[i:j:j], as PackMorton hands out) of
// one float block, so an append through one can never spill into its
// neighbor. The headers stay separate allocations: a process that keeps
// only some of the agents keeps only their headers and the block, and the
// block goes once PackMorton re-homes the kept agents.
func NewBlock(s *Schema, n int) []*Agent {
	ns, ne := s.NumState(), s.NumEffect()
	stride := ns + ne
	theta := s.IdentityEffects()
	block := make([]float64, n*stride)
	pop := make([]*Agent, n)
	for i := range pop {
		off := i * stride
		a := &Agent{
			ID:     ID(i + 1),
			State:  block[off : off+ns : off+ns],
			Effect: block[off+ns : off+stride : off+stride],
		}
		copy(a.Effect, theta)
		pop[i] = a
	}
	return pop
}

// Pos returns the agent's location per the schema's position fields.
func (a *Agent) Pos(s *Schema) geom.Vec {
	return geom.Vec{X: a.State[s.PosX], Y: a.State[s.PosY]}
}

// SetPos writes the agent's location.
func (a *Agent) SetPos(s *Schema, p geom.Vec) {
	a.State[s.PosX] = p.X
	a.State[s.PosY] = p.Y
}

// Clone returns a deep copy.
func (a *Agent) Clone() *Agent {
	c := &Agent{ID: a.ID, Dead: a.Dead}
	c.State = append([]float64(nil), a.State...)
	c.Effect = append([]float64(nil), a.Effect...)
	return c
}

// CombineEffects folds src's effect vector into dst's using the schema's
// combinators — the global ⊕ of reduce₂ (App. A, Fig. 10).
func CombineEffects(s *Schema, dst, src []float64) {
	for _, f := range s.Fields() {
		if f.Kind == Effect {
			dst[f.Index] = f.Comb.Combine(dst[f.Index], src[f.Index])
		}
	}
}

// Equal reports whether two agents have identical ID, liveness and vectors.
// It is exact (no tolerance): the determinism tests require bit-equality
// between runs at different partition counts.
func (a *Agent) Equal(b *Agent) bool {
	if a.ID != b.ID || a.Dead != b.Dead ||
		len(a.State) != len(b.State) || len(a.Effect) != len(b.Effect) {
		return false
	}
	for i := range a.State {
		if a.State[i] != b.State[i] {
			return false
		}
	}
	for i := range a.Effect {
		if a.Effect[i] != b.Effect[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer for debugging.
func (a *Agent) String() string {
	return fmt.Sprintf("agent(%d s=%v e=%v dead=%v)", a.ID, a.State, a.Effect, a.Dead)
}

// Population is an ordered collection of agents, sorted by ID where order
// matters (checkpoints, determinism comparisons).
type Population []*Agent

// Len, Less, Swap implement sort.Interface over IDs.
func (p Population) Len() int           { return len(p) }
func (p Population) Less(i, j int) bool { return p[i].ID < p[j].ID }
func (p Population) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }

// Clone deep-copies the population.
func (p Population) Clone() Population {
	out := make(Population, len(p))
	for i, a := range p {
		out[i] = a.Clone()
	}
	return out
}

// Equal reports exact equality of two ID-sorted populations.
func (p Population) Equal(q Population) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if !p[i].Equal(q[i]) {
			return false
		}
	}
	return true
}

// Digest is an ID-sorted population's fingerprint: FNV-64a over its
// agents in order, each as its ID, its liveness and the exact bits of its
// state and effects. Two populations share it only if they agree bit for
// bit.
func Digest(pop []*Agent) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, a := range pop {
		put(uint64(a.ID))
		if a.Dead {
			put(1)
		} else {
			put(0)
		}
		for _, v := range a.State {
			put(math.Float64bits(v))
		}
		for _, v := range a.Effect {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}
