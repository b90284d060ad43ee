package engine

import (
	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/transport"
)

// Envelope is the value flowing through the MapReduce dataflow: an agent
// copy plus routing metadata (App. A). It is the wire's own record type,
// so a batch of them crosses a TCP transport as one column block with no
// conversion.
//
// A replica lives in its sender's replicaArena: it is valid from the
// sender's map phase until that worker's next map phase, and the replicas
// of one agent share one State snapshot, so a receiver never writes a
// replica's State. Its Envelope and agent header are its own. A local
// model's replicas all share one read-only Effect, the identity θ; a
// non-local model's each own theirs, because reduce₁ folds partial effects
// into it and rewrites SrcPart.
type Envelope = transport.Envelope

func cloneEnvelope(e *Envelope) *Envelope {
	return &Envelope{A: e.A.Clone(), Replica: e.Replica, SrcPart: e.SrcPart}
}

// replicaArena is one worker's replica storage. mapPhase resets and
// refills it every tick, so in steady state replication allocates
// nothing: a replica costs its agent header and its Envelope, plus one
// State copy per replicated agent and, for a non-local model, a copy of
// its Effect.
//
// A local model never assigns to a replica — its Assigns reach only the
// probing agent, which is owned — and the owner's Effect is θ between
// ticks (the update resets it), so its replicas point at theta, one θ
// vector the engine owns (part.theta), and copy no Effect at all.
type replicaArena struct {
	replicas slab[replicaSlot]
	floats   slab[float64]
}

// replicaSlot is one replica's Envelope and the agent header it points to.
type replicaSlot struct {
	env Envelope
	a   agent.Agent
}

func (ar *replicaArena) reset() {
	ar.replicas.reset()
	ar.floats.reset()
}

// snapshot copies a's State into the arena, to be shared read-only by all
// of a's replicas this tick.
func (ar *replicaArena) snapshot(a *agent.Agent) []float64 {
	st := ar.floats.take(len(a.State))
	copy(st, a.State)
	return st
}

// replica returns a replica of the live agent a over its State snapshot
// state, produced by partition src. Its Effect is theta, the shared θ of
// a local model, or under non-local effects (theta nil) a copy of a's.
func (ar *replicaArena) replica(a *agent.Agent, state []float64, src int32, theta []float64) *Envelope {
	r := &ar.replicas.take(1)[0]
	eff := theta
	if eff == nil {
		eff = ar.floats.take(len(a.Effect))
		copy(eff, a.Effect)
	}
	r.a = agent.Agent{ID: a.ID, State: state, Effect: eff}
	r.env = Envelope{A: &r.a, Replica: true, SrcPart: src}
	return &r.env
}

// slabChunk is the length of a slab chunk, in values.
const slabChunk = 1024

// slab hands out runs of T from fixed-size chunks that never move, so a
// run stays valid until the slab is reset; reset keeps the chunks, so once
// they cover a fill's peak, refilling allocates nothing.
type slab[T any] struct {
	chunks [][]T
	cur    int // the chunk being filled
	off    int // its first free value
}

func (s *slab[T]) reset() { s.cur, s.off = 0, 0 }

// take returns the next n values, which hold whatever the last fill left
// there. The run is capped (s[i:j:j], as agent.PackMorton hands out its
// segments), so an append through it can never spill into its neighbor.
func (s *slab[T]) take(n int) []T {
	for s.cur < len(s.chunks) && s.off+n > len(s.chunks[s.cur]) {
		s.cur, s.off = s.cur+1, 0
	}
	if s.cur == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, max(slabChunk, n)))
	}
	v := s.chunks[s.cur][s.off : s.off+n : s.off+n]
	s.off += n
	return v
}
