// Differential partition state: the codec behind incremental checkpoints.
//
// A full checkpoint ships every partition's complete envelope set every k
// epochs; for large worlds most of those bytes re-describe state the
// coordinator already holds. DiffPartition instead encodes a partition
// against a baseline — the same partition at the previous checkpoint — at
// *field* granularity: an agent whose position moved but whose class and
// identity effects are untouched ships only the moved floats plus a
// bitmask. The encoding lists every current envelope in order (unchanged
// ones cost a couple of bytes), so ApplyDelta reconstructs not just the
// same multiset but the exact slice order — a restore from a
// delta-assembled checkpoint is bit-identical to one from a full
// checkpoint, which the recovery suites assert.
package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/bigreddata/brace/internal/agent"
)

// deltaVersion guards the blob layout; ApplyDelta rejects others.
const deltaVersion = 1

// Per-record kinds: the envelope is byte-identical to the baseline's, is
// patched field-by-field against it, or is shipped whole (new agent, or a
// shape the patch encoding cannot express).
const (
	deltaSame byte = iota
	deltaPatch
	deltaFresh
)

// deltaPatch flag bits.
const (
	patchDead    byte = 1 << 0 // Dead flag flipped
	patchReplica byte = 1 << 1 // Replica flag flipped
	patchSrcPart byte = 1 << 2 // SrcPart changed (uvarint follows)
)

// deltaFresh flag bits.
const (
	freshDead    byte = 1 << 0
	freshReplica byte = 1 << 1
)

// maxMaskFields bounds the per-vector change bitmask; schemas wider than
// 64 fields fall back to fresh records.
const maxMaskFields = 64

// CloneEnvelopes deep-copies a partition's envelopes — the baseline an
// incremental checkpoint diffs against must not alias live engine state.
// The copies come from one block each of envelopes, agents and floats;
// every vector is capped (s[i:j:j], as agent.PackMorton hands out its
// segments), so an append through one can never spill into its neighbor.
func CloneEnvelopes(envs []*Envelope) []*Envelope {
	nf := 0
	for _, e := range envs {
		nf += len(e.A.State) + len(e.A.Effect)
	}
	out := make([]*Envelope, len(envs))
	block := make([]Envelope, len(envs))
	agents := make([]agent.Agent, len(envs))
	floats := make([]float64, 0, nf)
	vec := func(v []float64) []float64 {
		if len(v) == 0 {
			return nil // as Clone leaves it
		}
		i := len(floats)
		floats = append(floats, v...)
		return floats[i:len(floats):len(floats)]
	}
	for i, e := range envs {
		a := e.A
		agents[i] = agent.Agent{ID: a.ID, State: vec(a.State), Effect: vec(a.Effect), Dead: a.Dead}
		block[i] = Envelope{A: &agents[i], Replica: e.Replica, SrcPart: e.SrcPart}
		out[i] = &block[i]
	}
	return out
}

// DiffPartition encodes cur as a delta against base. It returns ok=false
// when the pair cannot be delta-encoded at all (duplicate agent IDs make
// the baseline lookup ambiguous — replicas present mid-tick, say); the
// caller then ships full state. Envelopes absent from cur are implicitly
// removed: ApplyDelta rebuilds exactly the encoded records.
func DiffPartition(base, cur []*Envelope) (delta []byte, ok bool) {
	baseIdx := make(map[uint64]*Envelope, len(base))
	for _, e := range base {
		if e == nil {
			return nil, false
		}
		if _, dup := baseIdx[uint64(e.A.ID)]; dup {
			return nil, false
		}
		baseIdx[uint64(e.A.ID)] = e
	}
	seen := make(map[uint64]bool, len(cur))
	buf := make([]byte, 0, 64+32*len(cur))
	buf = append(buf, deltaVersion)
	buf = binary.AppendUvarint(buf, uint64(len(cur)))
	for _, e := range cur {
		if e == nil {
			return nil, false
		}
		id := uint64(e.A.ID)
		if seen[id] {
			return nil, false
		}
		seen[id] = true
		buf = binary.AppendUvarint(buf, id)
		b, exists := baseIdx[id]
		if !exists || !patchable(b, e) {
			buf = appendFresh(buf, e)
			continue
		}
		sMask := changedMask(b.A.State, e.A.State)
		eMask := changedMask(b.A.Effect, e.A.Effect)
		var flags byte
		if b.A.Dead != e.A.Dead {
			flags |= patchDead
		}
		if b.Replica != e.Replica {
			flags |= patchReplica
		}
		if b.SrcPart != e.SrcPart {
			flags |= patchSrcPart
		}
		if flags == 0 && sMask == 0 && eMask == 0 {
			buf = append(buf, deltaSame)
			continue
		}
		buf = append(buf, deltaPatch, flags)
		if flags&patchSrcPart != 0 {
			buf = binary.AppendUvarint(buf, uint64(uint32(e.SrcPart)))
		}
		buf = appendMasked(buf, sMask, e.A.State)
		buf = appendMasked(buf, eMask, e.A.Effect)
	}
	return buf, true
}

// ApplyDelta reconstructs the partition state a delta encodes on top of
// its baseline. The result shares nothing with base: patched and
// unchanged envelopes are cloned, so the baseline stays a valid rollback
// point even if the new checkpoint is later discarded. Deltas arrive off
// the network, so a malformed one is an error, never a panic: like
// DiffPartition, it refuses an agent listed twice, which also bounds the
// base clones a short blob can demand to one per base agent.
func ApplyDelta(base []*Envelope, delta []byte) ([]*Envelope, error) {
	baseIdx := make(map[uint64]*Envelope, len(base))
	for _, e := range base {
		// The base may have arrived off the wire (a worker's earlier
		// full checkpoint frame): validate it like DiffPartition does
		// instead of trusting it — a nil or duplicate entry must be an
		// error, not a panic in the coordinator.
		if e == nil {
			return nil, fmt.Errorf("engine: delta base contains a nil envelope")
		}
		if _, dup := baseIdx[uint64(e.A.ID)]; dup {
			return nil, fmt.Errorf("engine: delta base has duplicate agent %d", e.A.ID)
		}
		baseIdx[uint64(e.A.ID)] = e
	}
	r := &deltaReader{buf: delta}
	if v := r.byte(); v != deltaVersion {
		return nil, fmt.Errorf("engine: delta version %d, want %d", v, deltaVersion)
	}
	n := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	if n > uint64(len(delta)) { // a record costs ≥ 2 bytes; cheap sanity bound
		return nil, fmt.Errorf("engine: delta claims %d records in %d bytes", n, len(delta))
	}
	out := make([]*Envelope, 0, n)
	seen := make(map[uint64]bool, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		id := r.uvarint()
		if seen[id] {
			return nil, fmt.Errorf("engine: delta lists agent %d twice", id)
		}
		seen[id] = true
		kind := r.byte()
		switch kind {
		case deltaSame, deltaPatch:
			b, ok := baseIdx[id]
			if !ok {
				return nil, fmt.Errorf("engine: delta references agent %d absent from base", id)
			}
			e := cloneEnvelope(b)
			if kind == deltaPatch {
				flags := r.byte()
				if flags&patchDead != 0 {
					e.A.Dead = !e.A.Dead
				}
				if flags&patchReplica != 0 {
					e.Replica = !e.Replica
				}
				if flags&patchSrcPart != 0 {
					e.SrcPart = int32(uint32(r.uvarint()))
				}
				r.masked(e.A.State)
				r.masked(e.A.Effect)
			}
			out = append(out, e)
		case deltaFresh:
			out = append(out, r.fresh(id))
		default:
			return nil, fmt.Errorf("engine: delta record kind %d unknown", kind)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != r.off {
		return nil, fmt.Errorf("engine: %d trailing delta bytes", len(r.buf)-r.off)
	}
	return out, nil
}

// patchable reports whether cur can be expressed as a field patch of b:
// vector shapes must match and fit the bitmask width.
func patchable(b, cur *Envelope) bool {
	return len(b.A.State) == len(cur.A.State) && len(b.A.Effect) == len(cur.A.Effect) &&
		len(cur.A.State) <= maxMaskFields && len(cur.A.Effect) <= maxMaskFields
}

// changedMask returns a bitmask of indices where cur differs from base.
// Comparison is on bit patterns (Float64bits), not ==: a checkpoint must
// round-trip -0 and NaN payloads exactly.
func changedMask(base, cur []float64) uint64 {
	var m uint64
	for i := range cur {
		if math.Float64bits(base[i]) != math.Float64bits(cur[i]) {
			m |= 1 << uint(i)
		}
	}
	return m
}

// appendMasked writes a change mask and the raw bits of each set field.
func appendMasked(buf []byte, mask uint64, vals []float64) []byte {
	buf = binary.AppendUvarint(buf, mask)
	for i := range vals {
		if mask&(1<<uint(i)) != 0 {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(vals[i]))
		}
	}
	return buf
}

// appendFresh writes a complete envelope record (ID already written).
func appendFresh(buf []byte, e *Envelope) []byte {
	var flags byte
	if e.A.Dead {
		flags |= freshDead
	}
	if e.Replica {
		flags |= freshReplica
	}
	buf = append(buf, deltaFresh, flags)
	buf = binary.AppendUvarint(buf, uint64(uint32(e.SrcPart)))
	buf = binary.AppendUvarint(buf, uint64(len(e.A.State)))
	for _, v := range e.A.State {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.AppendUvarint(buf, uint64(len(e.A.Effect)))
	for _, v := range e.A.Effect {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// deltaReader decodes a delta blob with sticky error handling.
type deltaReader struct {
	buf []byte
	off int
	err error
}

func (r *deltaReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("engine: truncated delta at byte %d", r.off)
	}
}

func (r *deltaReader) byte() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func (r *deltaReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *deltaReader) float() float64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// masked reads a change mask and overwrites the set fields in place.
func (r *deltaReader) masked(vals []float64) {
	mask := r.uvarint()
	if r.err != nil {
		return
	}
	if mask>>uint(len(vals)) != 0 {
		r.err = fmt.Errorf("engine: delta mask %#x exceeds %d fields", mask, len(vals))
		return
	}
	for i := range vals {
		if mask&(1<<uint(i)) != 0 {
			vals[i] = r.float()
		}
	}
}

// floats reads a length-prefixed float vector, bounds-checked against the
// remaining buffer so a corrupt length cannot force a huge allocation.
func (r *deltaReader) floats() []float64 {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)-r.off)/8 {
		r.fail()
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.float()
	}
	return out
}

// fresh reads a complete envelope record for the given agent ID.
func (r *deltaReader) fresh(id uint64) *Envelope {
	flags := r.byte()
	srcPart := int32(uint32(r.uvarint()))
	state := r.floats()
	effect := r.floats()
	if r.err != nil {
		return nil
	}
	return &Envelope{
		A:       &agent.Agent{ID: agent.ID(id), State: state, Effect: effect, Dead: flags&freshDead != 0},
		Replica: flags&freshReplica != 0,
		SrcPart: srcPart,
	}
}
