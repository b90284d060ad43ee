package agent

import (
	"fmt"

	"github.com/bigreddata/brace/internal/geom"
)

// FieldKind distinguishes state fields (public attributes updated only at
// tick boundaries) from effect fields (intermediate accumulators written
// during the query phase), as in §2.1 of the paper.
type FieldKind int

const (
	State FieldKind = iota
	Effect
)

// String implements fmt.Stringer.
func (k FieldKind) String() string {
	if k == State {
		return "state"
	}
	return "effect"
}

// Field describes one attribute of an agent class.
type Field struct {
	Name   string
	Kind   FieldKind
	Public bool
	// Comb is the effect combinator; nil for state fields.
	Comb Combinator
	// Index is the position of the field inside the agent's State or
	// Effect vector, assigned by the schema builder.
	Index int
}

// Schema describes an agent class: its fields and the spatial constraints
// the paper attaches to location state fields (visibility ρ and
// reachability, §2.1/§4.1). One Schema is shared by all agents of a class.
type Schema struct {
	// Name of the agent class, e.g. "Fish".
	Name string

	fields  []Field
	byName  map[string]int // index into fields
	nState  int
	nEffect int

	// PosX, PosY are the State indices of the spatial location. Every
	// BRACE schema must designate a position: the neighborhood property is
	// what makes the iterated spatial join tractable.
	PosX, PosY int

	// Visibility is the distance bound ρ on the visible region: an agent
	// can read from or assign effects to agents within ρ of its position.
	// Zero or negative means unbounded (the engine then replicates
	// everything everywhere, which is correct but slow).
	Visibility float64

	// ProbeRadius is read by the benchmark's spatial probe (bench/), which
	// sizes its candidate lists to it when positive; nothing in this module
	// sets or reads it. It goes with that probe.
	ProbeRadius float64

	// Reach bounds how far the position may move in one update phase; the
	// engine crops updates to it, mirroring the #range tag semantics. Zero
	// or negative means unbounded.
	Reach float64
}

// NewSchema starts building a schema for the named class. Call AddState /
// AddEffect, then Finalize.
func NewSchema(name string) *Schema {
	return &Schema{Name: name, byName: make(map[string]int), PosX: -1, PosY: -1}
}

// AddState appends a state field and returns its index in the State vector.
func (s *Schema) AddState(name string, public bool) int {
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("agent: duplicate field %q in schema %s", name, s.Name))
	}
	idx := s.nState
	s.byName[name] = len(s.fields)
	s.fields = append(s.fields, Field{Name: name, Kind: State, Public: public, Index: idx})
	s.nState++
	return idx
}

// AddEffect appends an effect field with the given combinator and returns
// its index in the Effect vector.
func (s *Schema) AddEffect(name string, public bool, c Combinator) int {
	if c == nil {
		panic(fmt.Sprintf("agent: effect %q needs a combinator", name))
	}
	if _, dup := s.byName[name]; dup {
		panic(fmt.Sprintf("agent: duplicate field %q in schema %s", name, s.Name))
	}
	idx := s.nEffect
	s.byName[name] = len(s.fields)
	s.fields = append(s.fields, Field{Name: name, Kind: Effect, Public: public, Comb: c, Index: idx})
	s.nEffect++
	return idx
}

// SetPosition designates which state fields hold the agent's location.
func (s *Schema) SetPosition(xField, yField string) *Schema {
	fx, ok := s.FieldByName(xField)
	if !ok || fx.Kind != State {
		panic(fmt.Sprintf("agent: position x field %q is not a state field", xField))
	}
	fy, ok := s.FieldByName(yField)
	if !ok || fy.Kind != State {
		panic(fmt.Sprintf("agent: position y field %q is not a state field", yField))
	}
	s.PosX, s.PosY = fx.Index, fy.Index
	return s
}

// SetVisibility sets the distance bound ρ (<=0 for unbounded).
func (s *Schema) SetVisibility(rho float64) *Schema { s.Visibility = rho; return s }

// SetReach sets the per-tick movement bound (<=0 for unbounded).
func (s *Schema) SetReach(d float64) *Schema { s.Reach = d; return s }

// Validate checks that the schema is usable by the engine.
func (s *Schema) Validate() error {
	if s.PosX < 0 || s.PosY < 0 {
		return fmt.Errorf("agent: schema %s has no position fields", s.Name)
	}
	if s.nState == 0 {
		return fmt.Errorf("agent: schema %s has no state fields", s.Name)
	}
	return nil
}

// Fields returns the declared fields in declaration order.
func (s *Schema) Fields() []Field { return s.fields }

// FieldByName looks a field up by its BRASIL-level name.
func (s *Schema) FieldByName(name string) (Field, bool) {
	i, ok := s.byName[name]
	if !ok {
		return Field{}, false
	}
	return s.fields[i], true
}

// StateIndex returns the State-vector index of the named state field,
// panicking if absent — schema lookups happen at model construction time,
// where a typo is a programming error.
func (s *Schema) StateIndex(name string) int {
	f, ok := s.FieldByName(name)
	if !ok || f.Kind != State {
		panic(fmt.Sprintf("agent: no state field %q in schema %s", name, s.Name))
	}
	return f.Index
}

// EffectIndex returns the Effect-vector index of the named effect field.
func (s *Schema) EffectIndex(name string) int {
	f, ok := s.FieldByName(name)
	if !ok || f.Kind != Effect {
		panic(fmt.Sprintf("agent: no effect field %q in schema %s", name, s.Name))
	}
	return f.Index
}

// NumState returns the length of the State vector.
func (s *Schema) NumState() int { return s.nState }

// NumEffect returns the length of the Effect vector.
func (s *Schema) NumEffect() int { return s.nEffect }

// EffectCombinator returns the combinator of effect index i.
func (s *Schema) EffectCombinator(i int) Combinator {
	for _, f := range s.fields {
		if f.Kind == Effect && f.Index == i {
			return f.Comb
		}
	}
	panic(fmt.Sprintf("agent: no effect index %d in schema %s", i, s.Name))
}

// ResetEffects overwrites eff with the identity vector θ (App. A: "effect
// attributes ... need to be reset at the end of every tick").
func (s *Schema) ResetEffects(eff []float64) {
	for _, f := range s.fields {
		if f.Kind == Effect {
			eff[f.Index] = f.Comb.Identity()
		}
	}
}

// IdentityEffects allocates a fresh θ vector.
func (s *Schema) IdentityEffects() []float64 {
	eff := make([]float64, s.nEffect)
	s.ResetEffects(eff)
	return eff
}

// VisibleRegion returns the visible region VR(l) of an agent at position l:
// the circumscribing square of the visibility disc, or the whole plane when
// visibility is unbounded.
func (s *Schema) VisibleRegion(l geom.Vec) geom.Rect {
	if s.Visibility <= 0 {
		return geom.Infinite()
	}
	return geom.Square(l, s.Visibility)
}

// ByteSize estimates the serialized size of one agent of this schema, used
// by the cluster cost model to charge network transfer for replicas.
func (s *Schema) ByteSize() int {
	const idBytes = 8
	return idBytes + 8*(s.nState+s.nEffect)
}
