// Control-plane surface of the distributed engine: the accessors and
// mutators a coordinator-driven worker needs at epoch barriers. The
// in-memory engine is its own master (onEpoch rebalances, the runtime
// checkpoints internally); a multi-process worker instead ships the same
// per-partition inputs to the coordinator, which runs PlanRebalance — the
// identical decision procedure — and answers with cuts to install, a
// checkpoint order, or a restore. Both paths run one procedure on inputs
// that are functions of agent state and cuts alone — owned positions and
// the rows probes returned this epoch, never index or cache counters —
// which is what makes `-lb` bit-identical over TCP, across index kinds and
// after a recovery, with nothing but agent state in a checkpoint.
package engine

import (
	"fmt"
	"sort"

	"github.com/bigreddata/brace/internal/detutil"
	"github.com/bigreddata/brace/internal/partition"
)

// PlanRebalance runs the 1-D balancer's decision procedure from
// per-partition inputs: xs[p] holds the x coordinates of partition p's
// owned agents, cost[p] the rows its probes returned this epoch (see
// PartitionCost; the per-agent cost proxy is cost/owned + 1). Positions are
// folded partition-major and sorted within each partition, so the decision
// is a function of the per-partition position multisets and costs alone —
// an in-memory engine and a coordinator assembling worker statistics reach
// the same cuts bit for bit.
func PlanRebalance(b partition.Balancer, strips *partition.Strips, xs [][]float64, cost []int64) partition.Decision {
	var flat, costs []float64
	for p := range xs {
		sorted := append([]float64(nil), xs[p]...)
		sort.Float64s(sorted)
		perAgent := 1.0
		if n := len(sorted); n > 0 {
			perAgent = float64(cost[p])/float64(n) + 1
		}
		for _, x := range sorted {
			flat = append(flat, x)
			costs = append(costs, perAgent)
		}
	}
	return b.Plan(strips, flat, costs)
}

// LocalPartitions returns the partitions this engine computes (all of
// them for a single-process engine).
func (e *Distributed) LocalPartitions() []int {
	if e.opts.LocalParts == nil {
		all := make([]int, e.opts.Workers)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return append([]int(nil), e.opts.LocalParts...)
}

// PartitionXs returns the x coordinates of partition p's owned values —
// the balancer's per-partition input.
func (e *Distributed) PartitionXs(p int) []float64 {
	vals := e.rt.Values(p)
	xs := make([]float64, len(vals))
	for i, env := range vals {
		xs[i] = env.A.Pos(e.schema).X
	}
	return xs
}

// PartitionCost returns the balancer's cost input for partition p: the
// rows its probes have returned since the last epoch barrier (or restore).
// A probe's rows are the agents within its radius, so the count is a
// function of agent state and cuts alone — the same whichever index, cache
// state, tick schedule or transport produced them — and it restarts where
// checkpoints are taken, so no checkpoint carries it.
func (e *Distributed) PartitionCost(p int) int64 { return e.parts[p].cost }

// resetCosts starts a new cost epoch on every partition.
func (e *Distributed) resetCosts() {
	for _, p := range e.parts {
		p.cost = 0
	}
}

// ExportPartition returns partition p's current envelopes for checkpoint
// shipping. The slice aliases live engine state: the caller must
// serialize it before the engine ticks again.
func (e *Distributed) ExportPartition(p int) []*Envelope { return e.rt.Values(p) }

// InstallCuts replaces the strip partitioning with the given interior
// boundaries — a coordinator rebalancing directive. Only legal at an
// epoch barrier (no phase may be executing).
func (e *Distributed) InstallCuts(cuts []float64) error {
	p, err := partition.NewStripsFromCuts(cuts)
	if err != nil {
		return err
	}
	if p.N() != e.opts.Workers {
		return fmt.Errorf("engine: %d cuts make %d partitions, want %d", len(cuts), p.N(), e.opts.Workers)
	}
	e.part = p
	// Migrating agents reach their new owner over the wire, so the first
	// tick under the new cuts runs unsplit (matching the in-memory
	// master, which marks the rebalance tick the same way in onEpoch).
	e.noSplitTick = e.rt.Tick()
	return nil
}

// Restore rewinds the engine to a coordinator-held checkpoint: tick,
// strip cuts (nil keeps the current partitioning), the set of partitions
// this process now computes, and their owned envelopes by partition — all a
// checkpoint holds. Partitions outside the new local set are cleared. Only
// legal between RunTicks calls.
func (e *Distributed) Restore(tick uint64, cuts []float64, local []int, vals map[int][]*Envelope) error {
	if cuts != nil {
		if err := e.InstallCuts(cuts); err != nil {
			return err
		}
	}
	for _, p := range detutil.SortedKeys(vals) {
		if p < 0 || p >= e.opts.Workers {
			return fmt.Errorf("engine: restore of unknown partition %d", p)
		}
	}
	e.rt.Reset(tick, local, vals)
	e.opts.LocalParts = local
	e.lastEpochT = tick
	e.resetCosts() // checkpoints are taken at barriers, where the cost is 0
	// The restored values sit consistently under the restored cuts, so the
	// next tick self-sends every owned agent: the two-pass split resumes
	// immediately.
	e.noSplitTick = neverTick
	return nil
}
