package engine

import (
	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/transport"
)

// Envelope is the value flowing through the MapReduce dataflow: an agent
// copy plus routing metadata. Between ticks only owned copies exist; during
// a tick the map task adds replicas for every partition whose visible
// region contains the agent (App. A).
//
// A replica lives in its sender's replicaArena: it is valid from the
// sender's map phase until that worker's next map phase, and the replicas
// of one agent share one State snapshot, so a receiver never writes a
// replica's State. Its Envelope, agent header and Effect are its own: a
// non-local reduce₁ rewrites SrcPart and folds partial effects into it.
type Envelope struct {
	A *agent.Agent
	// Replica marks copies distributed for reading (and, in non-local
	// mode, for collecting partial effect aggregates); the one non-replica
	// copy per agent carries the authoritative state.
	Replica bool
	// SrcPart is the partition that produced this record. reduce₂ folds
	// partial aggregates in ascending SrcPart order, making the global ⊕
	// deterministic for a fixed partitioning.
	SrcPart int32
}

// envelopeTag is an envelope batch's codec tag on the wire.
const envelopeTag = 1

// Envelope batches travel inside interface-typed frame fields — a Data
// frame's cluster.Message.Payload, PartState.Values, FinalReport.Values —
// so the engine registers their codec with the transport, which cannot
// import it. Any binary that links the engine can send them.
func init() { transport.RegisterCodec(envelopeTag, envelopeCodec{}) }

// envelopeCodec carries a []*Envelope as one transport column block.
// Decoding gives the replicas and the owned envelopes a block of
// Envelopes each, beside the Block's two blocks of agents and vectors, so
// a long-lived owned envelope never shares memory with a replica.
type envelopeCodec struct{}

func (envelopeCodec) Append(e *transport.Encoder, v any) bool {
	batch, ok := v.([]*Envelope)
	if !ok {
		return false
	}
	e.Block(len(batch), func(i int) (*agent.Agent, bool, int32) {
		if x := batch[i]; x != nil {
			return x.A, x.Replica, x.SrcPart
		}
		return nil, false, 0
	})
	return true
}

func (envelopeCodec) Read(d *transport.Decoder) (any, error) {
	b, err := d.Block()
	if err != nil {
		return nil, err
	}
	out := make([]*Envelope, b.Len())
	replicas, owned := make([]Envelope, b.Replicas()), make([]Envelope, b.Len()-b.Replicas())
	for i := range out {
		a, replica, src := b.Next()
		var env *Envelope
		if replica {
			env, replicas = &replicas[0], replicas[1:]
		} else {
			env, owned = &owned[0], owned[1:]
		}
		*env = Envelope{A: a, Replica: replica, SrcPart: src}
		out[i] = env
	}
	return out, nil
}

func cloneEnvelope(e *Envelope) *Envelope {
	return &Envelope{A: e.A.Clone(), Replica: e.Replica, SrcPart: e.SrcPart}
}

// replicaArena is one worker's replica storage. mapPhase resets and
// refills it every tick, so in steady state replication allocates
// nothing: a replica costs a copy of its Effect, its agent header and its
// Envelope, plus one State copy per replicated agent.
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
// state, produced by partition src.
func (ar *replicaArena) replica(a *agent.Agent, state []float64, src int32) *Envelope {
	r := &ar.replicas.take(1)[0]
	r.a = agent.Agent{ID: a.ID, State: state, Effect: ar.floats.take(len(a.Effect))}
	copy(r.a.Effect, a.Effect)
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
