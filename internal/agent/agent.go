package agent

import (
	"fmt"

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
