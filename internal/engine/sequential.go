package engine

import (
	"fmt"
	"sort"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/spatial"
)

// Sequential is the single-node reference engine: the same Model executed
// by a plain loop over all agents, with the same canonical orderings and
// the same per-(seed, tick, agent) randomness as Distributed. It serves
// three roles: the correctness oracle for the distributed engine, the
// "BRACE single node" configuration of the Fig. 3–4 experiments (with
// Index selecting indexed vs non-indexed), and the substrate the
// hand-coded-simulator comparisons run against.
//
// For models with only local effect assignments, Sequential and
// Distributed agree bit-for-bit: the visible set of each agent is
// identical and effects fold in ascending neighbor-ID order in both. For
// non-local models the distributed engine folds partial aggregates per
// partition before the global ⊕, so results agree only up to
// floating-point reassociation; tests compare those with a tolerance.
//
// With the KD-tree index and a bounded visibility, the engine runs the
// cached query path: Verlet candidate lists are reused across ticks while
// no agent has moved more than skin/2. State is bit-identical to the
// scan's. The engine is single-threaded: a tick runs on the goroutine that
// called RunTicks.
type Sequential struct {
	core
	tick   uint64
	agents agent.Population // ID-sorted
	world  *part            // the one copy set: every agent, no replicas
}

// NewSequential builds a sequential engine over the given population. The
// KD-tree always runs behind the query cache, whose lists engage with a
// bounded visibility (see resolveSkin); KindScan is the no-index reference
// configuration.
func NewSequential(m Model, pop []*agent.Agent, index spatial.Kind, seed uint64) (*Sequential, error) {
	c, err := newCore(m, seed)
	if err != nil {
		return nil, err
	}
	e := &Sequential{core: c, agents: append(agent.Population(nil), pop...)}
	sort.Sort(e.agents)
	e.world = e.newPart(index)
	return e, nil
}

// packInterval is the Morton-relayout cadence in ticks: long enough to
// amortize the O(n log n) repack, short enough that drift (agents moving
// away from their arena neighbors) stays modest.
const packInterval = 64

// RunTicks advances the simulation n full ticks; a negative n is an error,
// as it is from the partitioned engine.
func (e *Sequential) RunTicks(n int) error {
	if n < 0 {
		return fmt.Errorf("engine: negative tick count %d", n)
	}
	return e.timed(func() error {
		for i := 0; i < n; i++ {
			e.runTick()
			e.tick++
		}
		return nil
	})
}

func (e *Sequential) runTick() {
	// Relayout epoch: repack agent storage in Morton order of current
	// positions so neighbors in space are neighbors in memory for the next
	// packInterval ticks of candidate walks. Pure relayout — no value or
	// ordering change (see agent.PackMorton).
	if e.tick%packInterval == 0 {
		agent.PackMorton(e.schema, e.agents)
	}
	// Query phase over the whole world: every agent probes.
	p := e.world
	e.visited += p.build(e.agents, nil)
	e.visited += p.query(p.allSlots(len(e.agents)), nil)
	e.agentTicks += int64(len(e.agents))

	// Update phase.
	var spawned agent.Population
	alive := e.agents[:0]
	for _, a := range e.agents {
		spawned = append(spawned, p.update(a, e.tick)...)
		if !a.Dead {
			alive = append(alive, a)
		}
	}
	e.agents = append(alive, spawned...)
	// The in-place death filter preserves ID order, so the canonical sort
	// is only needed when the tick spawned agents.
	if len(spawned) > 0 {
		sort.Sort(e.agents)
	}
}

// Agents returns the current ID-sorted population.
func (e *Sequential) Agents() agent.Population { return e.agents }

// Tick returns completed ticks.
func (e *Sequential) Tick() uint64 { return e.tick }

// CacheStats returns the query cache's cumulative build/reuse counters
// (zero when the cached path is disabled).
func (e *Sequential) CacheStats() spatial.CacheStats { return e.world.cacheStats() }
