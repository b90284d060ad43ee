// The master of the paper's §3.3, once: at every epoch barrier it decides
// whether to repartition and whether to order a coordinated checkpoint; it
// files the partitions' full checkpoint pieces as the state it holds; on a
// failure it hands that state back for rollback and re-execution. It has
// no transport and no clock, so the same state machine is driven in
// process by Distributed's epoch hook and over TCP by the distrib
// coordinator.
package engine

import (
	"fmt"
	"slices"
	"sort"

	"github.com/bigreddata/brace/internal/partition"
	"github.com/bigreddata/brace/internal/transport"
)

// EpochDecision records what the master decided at one epoch barrier.
type EpochDecision struct {
	Tick       uint64
	Rebalanced bool
	Cuts       []float64 // the strip cuts in force after the barrier
}

// Checkpoint is one coordinated checkpoint as the master holds it: the
// barrier tick, the cuts in force before that barrier's own rebalance, and
// every partition's full state, indexed by partition. Its values are
// read-only: whoever restores from it clones them.
type Checkpoint struct {
	Tick  uint64
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

// PieceError refuses a checkpoint piece the master cannot file: one with
// no checkpoint ordered, for a partition the run does not have, filed
// twice, or not marked as its partition's full state.
type PieceError struct {
	Tick    uint64 // the ordered checkpoint's tick; 0 with none ordered
	Part    int
	Problem string // "with no checkpoint ordered", "unknown", "filed twice" or "not full"
}

func (e *PieceError) Error() string {
	return fmt.Sprintf("engine: checkpoint piece at tick %d for partition %d: %s", e.Tick, e.Part, e.Problem)
}

// Master is the epoch-boundary state machine; callers serialize its use.
//
// The checkpoints it holds are the pieces File was given, kept as they
// are: a piece's values must not change once filed. Over TCP they are
// decoded frames nobody else holds; in process the engine clones its live
// state once before filing it.
type Master struct {
	parts    int
	every    int // checkpoint interval in epochs; 0 orders none
	lb       bool
	balancer partition.Balancer
	cuts     []float64 // cuts currently in force

	// epoch counts completed barrier rounds, the checkpoint cadence. It and
	// lastBoundary survive a rewind: the replay does not reset them.
	epoch        int
	lastBoundary uint64

	held    *Checkpoint // last complete checkpoint
	pending *Checkpoint // checkpoint being assembled; its filed parts are Full
	filed   int         // pieces of pending filed so far

	log []EpochDecision
}

// NewMaster starts a master holding initial — whose cuts fix the partition
// count, and whose Parts may be nil in a run that never rolls back. It
// orders a checkpoint every `every` epochs (0: none), and with lb runs the
// balancer b (zero value: partition.DefaultBalancer) at every barrier.
func NewMaster(initial Checkpoint, every int, lb bool, b partition.Balancer) *Master {
	if b == (partition.Balancer{}) {
		b = partition.DefaultBalancer()
	}
	return &Master{
		parts:    len(initial.Cuts) + 1,
		every:    every,
		lb:       lb,
		balancer: b,
		cuts:     slices.Clone(initial.Cuts),
		held:     &initial,
	}
}

// Barrier decides, from every partition's statistics, whether the barrier
// at tick orders a checkpoint and whether it rebalances — only past the
// last barrier, so a re-executed one never does — and logs the decision.
// Incomplete statistics are a *StatsError.
func (m *Master) Barrier(tick uint64, stats []transport.PartStats) (transport.Directive, error) {
	byPart, err := m.index(tick, stats)
	if err != nil {
		return transport.Directive{}, err
	}
	m.epoch++
	d := transport.Directive{Tick: tick}
	if m.every > 0 && m.epoch%m.every == 0 {
		d.Checkpoint = true
		m.pending = &Checkpoint{Tick: tick, Cuts: slices.Clone(m.cuts), Parts: make([]transport.PartState, m.parts)}
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

// File adds full pieces to the checkpoint being assembled and holds them
// as they are: it copies no value. A piece it cannot file is a
// *PieceError. The call that files the last piece makes the checkpoint the
// held one, and returns it.
func (m *Master) File(pieces ...transport.PartState) (*Checkpoint, error) {
	for _, ps := range pieces {
		ck := m.pending
		problem := ""
		switch {
		case ck == nil:
			problem = "with no checkpoint ordered"
		case ps.Part < 0 || ps.Part >= m.parts:
			problem = "unknown"
		case ck.Parts[ps.Part].Full:
			problem = "filed twice"
		case !ps.Full:
			problem = "not full"
		}
		if problem != "" {
			e := &PieceError{Part: ps.Part, Problem: problem}
			if ck != nil {
				e.Tick = ck.Tick
			}
			return nil, e
		}
		ck.Parts[ps.Part] = ps
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
