package distrib

import (
	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/transport"
)

// ckptTracker is the worker side of incremental checkpoints. It remembers,
// per owned partition, a deep clone of the state shipped at the last
// checkpoint — which is exactly what the coordinator holds once that
// checkpoint completes — and encodes the next checkpoint as a field-level
// delta against it (engine.DiffPartition). The invariant that makes plain
// "diff against last shipped" sound: an interrupted checkpoint round is
// always followed by a recovery (the coordinator discards the
// half-assembled round only in recoverFrom), and every recovery carries a
// Restore that re-baselines this tracker on the coordinator's actual
// rollback state.
type ckptTracker struct {
	seq  uint64 // checkpoint sequence the baselines correspond to
	base map[int][]*engine.Envelope
}

func newCkptTracker() *ckptTracker {
	return &ckptTracker{base: make(map[int][]*engine.Envelope)}
}

// snapshot builds the CheckpointMsg answering a checkpoint directive and
// advances the baselines to the current state. A partition ships full
// state when the directive orders a keyframe, when no baseline exists
// (first checkpoint, or state acquired outside a checkpoint), or when the
// codec cannot delta-encode it; otherwise it ships a delta stamped with
// the base sequence the coordinator must apply it to.
func (t *ckptTracker) snapshot(eng *engine.Distributed, proc int, tick, seq uint64, full bool) *transport.CheckpointMsg {
	local := eng.LocalPartitions()
	ck := &transport.CheckpointMsg{Proc: proc, Tick: tick, Parts: make([]transport.PartState, 0, len(local))}
	newBase := make(map[int][]*engine.Envelope, len(local))
	for _, p := range local {
		cur := eng.ExportPartition(p)
		ps := transport.PartState{Part: p}
		base, haveBase := t.base[p]
		if delta, ok := diffIfPossible(base, cur, haveBase && !full); ok {
			ps.Base, ps.Delta = t.seq, delta
		} else {
			ps.Full, ps.Values = true, cur
		}
		ck.Parts = append(ck.Parts, ps)
		newBase[p] = engine.CloneEnvelopes(cur)
	}
	t.base, t.seq = newBase, seq
	return ck
}

func diffIfPossible(base, cur []*engine.Envelope, try bool) ([]byte, bool) {
	if !try {
		return nil, false
	}
	return engine.DiffPartition(base, cur)
}

// reset re-baselines the tracker on restored state: after a Restore both
// sides hold the same partitions bit for bit, so the next checkpoint can
// delta against it immediately — no forced keyframe after recovery.
func (t *ckptTracker) reset(seq uint64, parts []transport.PartState) {
	t.seq = seq
	t.base = make(map[int][]*engine.Envelope, len(parts))
	for _, ps := range parts {
		envs, ok := ps.Values.([]*engine.Envelope)
		if !ok {
			continue // non-envelope payloads cannot be baselines; ship full next time
		}
		t.base[ps.Part] = engine.CloneEnvelopes(envs)
	}
}
