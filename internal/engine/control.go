// Control-plane surface of the distributed engine: what a Master's barrier
// round needs from the partitions an engine runs, whether the engine is its
// own master or a worker of the coordinator's. The balancer's inputs are
// functions of agent state and cuts alone — never index counters —
// which is what makes `-lb` bit-identical over TCP, across index kinds and
// after a recovery, with nothing but agent state in a checkpoint.
package engine

import (
	"fmt"
	"slices"

	"github.com/bigreddata/brace/internal/partition"
	"github.com/bigreddata/brace/internal/transport"
)

// LocalPartitions returns the partitions this engine computes (all of
// them for a single-process engine).
func (e *Distributed) LocalPartitions() []int { return slices.Clone(e.rt.Local()) }

// EpochStats returns the master's input for this barrier, one entry per
// local partition: its probe rows and, when withXs, its owned agents' x.
func (e *Distributed) EpochStats(withXs bool) []transport.PartStats {
	local := e.rt.Local()
	stats := make([]transport.PartStats, 0, len(local))
	for _, p := range local {
		ps := transport.PartStats{Part: p, Cost: e.PartitionCost(p)}
		if withXs {
			vals := e.rt.Values(p)
			ps.Xs = make([]float64, len(vals))
			for i, env := range vals {
				ps.Xs[i] = env.A.Pos(e.schema).X
			}
		}
		stats = append(stats, ps)
	}
	return stats
}

// PartitionCost returns the balancer's cost input for partition p: the
// rows its probes have returned since the last epoch barrier (or restore).
// A probe's rows are the agents within its radius, so the count is a
// function of agent state and cuts alone — the same whichever index, tick
// schedule or transport produced them — and it restarts where
// checkpoints are taken, so no checkpoint carries it.
func (e *Distributed) PartitionCost(p int) int64 { return e.parts[p].cost }

// resetCosts starts a new cost epoch on every partition.
func (e *Distributed) resetCosts() {
	for _, p := range e.parts {
		p.cost = 0
	}
}

// ExportPartition returns partition p's current envelopes. The slice
// aliases live engine state: the caller must copy or serialize it before
// the engine ticks again.
func (e *Distributed) ExportPartition(p int) []*Envelope { return e.rt.Values(p) }

// Checkpoint answers the checkpoint order seq with one piece per local
// partition: full state for a keyframe (full), without a baseline or when
// the codec cannot delta-encode, else a delta against the baseline shipped
// last. That is what the master holds, because an interrupted round is
// always followed by a restore, which re-baselines. Pieces and new
// baselines share their (never mutated) values.
func (e *Distributed) Checkpoint(seq uint64, full bool) []transport.PartState {
	local := e.rt.Local()
	pieces := make([]transport.PartState, 0, len(local))
	base := make(map[int][]*Envelope, len(local))
	for _, p := range local {
		cur := CloneEnvelopes(e.rt.Values(p))
		ps := transport.PartState{Part: p, Full: true, Values: cur}
		if prev, ok := e.ckptBase[p]; ok && !full {
			if delta, ok := DiffPartition(prev, cur); ok {
				ps = transport.PartState{Part: p, Base: e.ckptSeq, Delta: delta}
			}
		}
		pieces = append(pieces, ps)
		base[p] = cur
	}
	e.ckptBase, e.ckptSeq = base, seq
	return pieces
}

// ApplyDirective carries out a master's directive at a barrier: an
// ordered checkpoint's pieces go to ship while the cuts the checkpoint
// records are still in force, then new cuts are installed.
func (e *Distributed) ApplyDirective(d *transport.Directive, ship func([]transport.PartState) error) error {
	if d.Checkpoint {
		if err := ship(e.Checkpoint(d.CkptSeq, d.CkptFull)); err != nil {
			return err
		}
	}
	if d.NewCuts == nil {
		return nil
	}
	return e.InstallCuts(d.NewCuts)
}

// InstallCuts replaces the strip partitioning with the given interior
// boundaries — a master's rebalancing directive. Only legal at an epoch
// barrier (no phase may be executing).
func (e *Distributed) InstallCuts(cuts []float64) error {
	p, err := e.strips(cuts)
	if err != nil {
		return err
	}
	e.part = p
	// Migrating agents reach their new owner over the wire on the first
	// tick under the new cuts.
	e.migrateTick = e.rt.Tick()
	return nil
}

// strips validates cuts for this engine's partition count.
func (e *Distributed) strips(cuts []float64) (*partition.Strips, error) {
	p, err := partition.NewStripsFromCuts(cuts)
	if err != nil {
		return nil, err
	}
	if p.N() != e.opts.Workers {
		return nil, fmt.Errorf("engine: %d cuts make %d partitions, want %d", len(cuts), p.N(), e.opts.Workers)
	}
	return p, nil
}

// Restore rewinds the engine to a checkpoint's state: tick, strip cuts,
// the partitions this process now computes (nil: all), and their owned
// envelopes, which the engine takes over. It checks every argument before
// it changes anything, and drops the checkpoint baselines and the epoch
// statistics past tick. Only legal between RunTicks calls.
func (e *Distributed) Restore(tick uint64, cuts []float64, local []int, vals map[int][]*Envelope) error {
	part, err := e.strips(cuts)
	if err != nil {
		return err
	}
	if err := e.rt.Reset(tick, local, vals); err != nil {
		return err
	}
	e.part = part
	e.ckptBase = nil
	e.resetCosts() // checkpoints are taken at barriers, where the cost is 0
	// The epochs past tick were rolled back: the replay records them again.
	// The cap makes the next append copy, leaving slices Epochs returned
	// intact.
	n := len(e.epochs)
	for n > 0 && e.epochs[n-1].Tick > tick {
		n--
	}
	e.epochs = e.epochs[:n:n]
	// The restored values sit consistently under the restored cuts, so the
	// next tick self-sends every owned agent: no agent migrates.
	e.migrateTick = neverTick
	return nil
}

// RestoreCheckpoint rewinds the engine to a master's checkpoint, or to
// the pieces of it a Restore frame carries, computing local (nil: all).
// The engine runs on clones; the checkpoint's own values become the
// baselines, so the next checkpoint can ship deltas at once.
func (e *Distributed) RestoreCheckpoint(ck *Checkpoint, local []int) error {
	vals := make(map[int][]*Envelope, len(ck.Parts))
	base := make(map[int][]*Envelope, len(ck.Parts))
	for _, ps := range ck.Parts {
		if _, dup := vals[ps.Part]; dup || !ps.Full {
			return fmt.Errorf("engine: checkpoint piece for partition %d is not its one full state", ps.Part)
		}
		vals[ps.Part] = CloneEnvelopes(ps.Values)
		base[ps.Part] = ps.Values
	}
	if err := e.Restore(ck.Tick, ck.Cuts, local, vals); err != nil {
		return err
	}
	e.ckptBase, e.ckptSeq = base, ck.Seq
	return nil
}
