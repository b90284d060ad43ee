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

// Checkpoint returns one full piece per local partition: its owned
// envelopes as they are, not copied. The pieces alias live engine state
// and are valid until the engine ticks again: a worker encodes them into a
// frame before it returns, and an engine that is its own master clones
// them before filing.
func (e *Distributed) Checkpoint() []transport.PartState {
	local := e.rt.Local()
	pieces := make([]transport.PartState, len(local))
	for i, p := range local {
		pieces[i] = transport.PartState{Part: p, Full: true, Values: e.rt.Values(p)}
	}
	return pieces
}

// ApplyDirective carries out a master's directive at a barrier: an
// ordered checkpoint's pieces go to ship while the cuts the checkpoint
// records are still in force, then new cuts are installed. The pieces
// alias live state (see Checkpoint): ship must copy or encode them before
// it returns.
func (e *Distributed) ApplyDirective(d *transport.Directive, ship func([]transport.PartState) error) error {
	if d.Checkpoint {
		if err := ship(e.Checkpoint()); err != nil {
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
// it changes anything, and drops the epoch statistics past tick. Only
// legal between RunTicks calls.
func (e *Distributed) Restore(tick uint64, cuts []float64, local []int, vals map[int][]*Envelope) error {
	part, err := e.strips(cuts)
	if err != nil {
		return err
	}
	if err := e.rt.Reset(tick, local, vals); err != nil {
		return err
	}
	e.part = part
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
// The engine runs on clones, so the checkpoint stays intact for another
// rewind.
func (e *Distributed) RestoreCheckpoint(ck *Checkpoint, local []int) error {
	vals := make(map[int][]*Envelope, len(ck.Parts))
	for _, ps := range ck.Parts {
		if _, dup := vals[ps.Part]; dup || !ps.Full {
			return fmt.Errorf("engine: checkpoint piece for partition %d is not its one full state", ps.Part)
		}
		vals[ps.Part] = CloneEnvelopes(ps.Values)
	}
	return e.Restore(ck.Tick, ck.Cuts, local, vals)
}
