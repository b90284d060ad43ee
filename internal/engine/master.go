// The master of the paper's §3.3, once: at every epoch barrier it decides
// whether to repartition and whether to order a coordinated checkpoint; it
// assembles checkpoint pieces into the state it holds; on a failure it
// hands that state back for rollback and re-execution. It has no transport
// and no clock, so the same state machine is driven in process by
// Distributed's epoch hook and over TCP by the distrib coordinator.
package engine

import (
	"fmt"
	"slices"
	"sort"

	"github.com/bigreddata/brace/internal/partition"
	"github.com/bigreddata/brace/internal/transport"
)

// DefaultCheckpointFullEvery is the keyframe interval when none is given.
const DefaultCheckpointFullEvery = 8

// EpochDecision records what the master decided at one epoch barrier.
type EpochDecision struct {
	Tick       uint64
	Rebalanced bool
	Cuts       []float64 // the strip cuts in force after the barrier
}

// Checkpoint is one coordinated checkpoint as the master holds it: the
// barrier tick, its sequence number (deltas name the base they build on),
// the cuts in force before that barrier's own rebalance, and every
// partition's full state, indexed by partition. Its values are read-only:
// whoever restores from it clones them.
type Checkpoint struct {
	Tick  uint64
	Seq   uint64
	Cuts  []float64
	Parts []transport.PartState
}

// StatsError refuses epoch statistics that do not cover every partition
// exactly once, which the balancer would cut on as if they were whole.
type StatsError struct {
	Tick    uint64
	Part    int
	Problem string // "missing", "reported twice" or "unknown"
}

func (e *StatsError) Error() string {
	return fmt.Sprintf("engine: epoch statistics at tick %d: partition %d %s", e.Tick, e.Part, e.Problem)
}

// Master is the epoch-boundary state machine; callers serialize its use.
type Master struct {
	parts     int
	every     int // checkpoint interval in epochs; 0 orders none
	fullEvery int // keyframe interval in ordered checkpoints
	lb        bool
	balancer  partition.Balancer
	cuts      []float64 // cuts currently in force

	// epoch counts completed barrier rounds, the checkpoint cadence. It and
	// lastBoundary survive a rewind: the replay does not reset them.
	epoch        int
	lastBoundary uint64
	seq          uint64 // sequence of the last ordered checkpoint

	held    *Checkpoint // last complete checkpoint
	pending *Checkpoint // checkpoint being assembled; its filed parts are Full
	filed   int         // pieces of pending filed so far

	log []EpochDecision
}

// NewMaster starts a master holding initial — whose cuts fix the partition
// count, and whose Parts may be nil in a run that never rolls back. It
// orders a checkpoint every `every` epochs (0: none), every fullEvery-th a
// keyframe (0: DefaultCheckpointFullEvery), and with lb runs the balancer
// b (zero value: partition.DefaultBalancer) at every barrier.
func NewMaster(initial Checkpoint, every, fullEvery int, lb bool, b partition.Balancer) *Master {
	if fullEvery == 0 {
		fullEvery = DefaultCheckpointFullEvery
	}
	if b == (partition.Balancer{}) {
		b = partition.DefaultBalancer()
	}
	return &Master{
		parts:     len(initial.Cuts) + 1,
		every:     every,
		fullEvery: fullEvery,
		lb:        lb,
		balancer:  b,
		cuts:      slices.Clone(initial.Cuts),
		held:      &initial,
	}
}

// Barrier decides, from every partition's statistics, whether the barrier
// at tick orders a checkpoint (and whether a keyframe) and whether it
// rebalances — only past the last barrier, so a re-executed one never does
// — and logs the decision. Incomplete statistics are a *StatsError.
func (m *Master) Barrier(tick uint64, stats []transport.PartStats) (transport.Directive, error) {
	byPart, err := m.index(tick, stats)
	if err != nil {
		return transport.Directive{}, err
	}
	m.epoch++
	d := transport.Directive{Tick: tick}
	if m.every > 0 && m.epoch%m.every == 0 {
		m.seq++
		d.Checkpoint, d.CkptSeq = true, m.seq
		d.CkptFull = m.fullEvery <= 1 || (m.seq-1)%uint64(m.fullEvery) == 0
		m.pending = &Checkpoint{Tick: tick, Seq: m.seq, Cuts: slices.Clone(m.cuts), Parts: make([]transport.PartState, m.parts)}
		m.filed = 0
	}
	if m.lb && tick > m.lastBoundary {
		if cuts, ok := m.plan(byPart); ok {
			m.cuts = cuts
			d.NewCuts = slices.Clone(cuts)
		}
	}
	m.lastBoundary = tick
	m.log = append(m.log, EpochDecision{Tick: tick, Rebalanced: d.NewCuts != nil, Cuts: slices.Clone(m.cuts)})
	return d, nil
}

// index orders the statistics by partition, each exactly once.
func (m *Master) index(tick uint64, stats []transport.PartStats) ([]*transport.PartStats, error) {
	byPart := make([]*transport.PartStats, m.parts)
	for i, ps := range stats {
		switch {
		case ps.Part < 0 || ps.Part >= m.parts:
			return nil, &StatsError{Tick: tick, Part: ps.Part, Problem: "unknown"}
		case byPart[ps.Part] != nil:
			return nil, &StatsError{Tick: tick, Part: ps.Part, Problem: "reported twice"}
		}
		byPart[ps.Part] = &stats[i]
	}
	for p, ps := range byPart {
		if ps == nil {
			return nil, &StatsError{Tick: tick, Part: p, Problem: "missing"}
		}
	}
	return byPart, nil
}

// plan runs the 1-D balancer on the epoch's statistics and returns the
// new cuts if it decided to apply them. Positions are folded
// partition-major and sorted within each partition, with the per-agent
// cost proxy rows/owned + 1 (see PartitionCost), so the decision is a
// function of the per-partition position multisets and costs alone: the
// same cuts bit for bit whichever process gathered them.
func (m *Master) plan(byPart []*transport.PartStats) ([]float64, bool) {
	strips, err := partition.NewStripsFromCuts(m.cuts)
	if err != nil {
		return nil, false
	}
	var xs, costs []float64
	for _, ps := range byPart {
		sorted := append([]float64(nil), ps.Xs...)
		sort.Float64s(sorted)
		perAgent := 1.0
		if n := len(sorted); n > 0 {
			perAgent = float64(ps.Cost)/float64(n) + 1
		}
		for _, x := range sorted {
			xs = append(xs, x)
			costs = append(costs, perAgent)
		}
	}
	d := m.balancer.Plan(strips, xs, costs)
	return d.NewCuts, d.Apply
}

// File adds pieces to the checkpoint being assembled; a delta must build
// on the held checkpoint, and is applied to it. The call that files the
// last piece makes the checkpoint the held one, and returns it.
func (m *Master) File(pieces ...transport.PartState) (*Checkpoint, error) {
	for _, ps := range pieces {
		ck := m.pending
		switch {
		case ck == nil:
			return nil, fmt.Errorf("engine: checkpoint piece for partition %d with no checkpoint ordered", ps.Part)
		case ps.Part < 0 || ps.Part >= m.parts:
			return nil, fmt.Errorf("engine: checkpoint piece for unknown partition %d", ps.Part)
		case ck.Parts[ps.Part].Full:
			return nil, fmt.Errorf("engine: checkpoint at tick %d got partition %d twice", ck.Tick, ps.Part)
		case !ps.Full && ps.Base != m.held.Seq:
			return nil, fmt.Errorf("engine: partition %d delta against checkpoint %d, the master holds %d",
				ps.Part, ps.Base, m.held.Seq)
		}
		vals := ps.Values
		if !ps.Full {
			applied, err := ApplyDelta(m.held.Parts[ps.Part].Values, ps.Delta)
			if err != nil {
				return nil, fmt.Errorf("engine: partition %d: %w", ps.Part, err)
			}
			vals = applied
		}
		ck.Parts[ps.Part] = transport.PartState{Part: ps.Part, Full: true, Values: vals}
		m.filed++
	}
	if m.pending == nil || m.filed < m.parts {
		return nil, nil
	}
	m.held, m.pending = m.pending, nil
	return m.held, nil
}

// Rewind abandons the checkpoint being assembled, puts the held one's cuts
// back in force, truncates the decision log to its tick and returns it.
func (m *Master) Rewind() *Checkpoint {
	m.pending = nil
	m.cuts = slices.Clone(m.held.Cuts)
	// Ticks grow between rewinds, so the kept decisions are a prefix; the
	// cap makes the next append copy, leaving slices Log returned intact.
	n := 0
	for n < len(m.log) && m.log[n].Tick <= m.held.Tick {
		n++
	}
	m.log = m.log[:n:n]
	return m.held
}

// Log returns the decisions in force: one per completed barrier, minus
// those a rewind rolled back. The slice is read-only.
func (m *Master) Log() []EpochDecision { return m.log }
