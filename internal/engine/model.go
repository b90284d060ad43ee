// Package engine implements BRACE's core contribution: processing a
// behavioral simulation as an *iterated spatial join* on a shared-nothing,
// main-memory MapReduce runtime (paper §3).
//
// Each tick joins every agent with the agents in its visible region (the
// query phase, run by reducers over replicated partitions) and then lets
// every agent update its own state (the update phase). Simulations with
// only local effect assignments use a single reduce per tick; simulations
// with non-local assignments use the map-reduce-reduce model of §3.2 with a
// second reduce that globally aggregates effect values at each agent's
// owner partition.
//
// There is one engine, Distributed: the BRACE runtime over
// internal/mapreduce, whose Options.Workers spatial partitions are its unit
// of parallelism. A single-node run is the one-partition engine (Workers:
// 1), which runs on the calling goroutine and hands its batches to itself
// in memory. Its tick body (part.go) is shared by every partition: a core
// holds what a run derives from its model once, and a part runs build →
// query → update over one ID-sorted copy set. Beyond that, a partition has
// replication and one reduce₁ pass once the map phase has drained: over
// everything it was sent, owned agents and replicas in one copy set, that
// updates owned agents or, for non-local effects, ships partials to
// reduce₂. The package's tests hold a naive O(n²) engine as the oracle it
// must agree with.
//
// A model's query phase reads one window, Cols: the copy set's state
// columns and probes that return rows. Every probe, including those of
// its closure view Cols.Env, goes through one probe core (queryEnv.rows in
// env.go), which filters the candidate block the probing agent's group
// shares.
package engine

import (
	"fmt"

	"github.com/bigreddata/brace/internal/agent"
)

// Model is the behavior of one agent class under the state-effect pattern.
// Implementations must follow the pattern's read/write discipline (which
// the BRASIL compiler enforces mechanically for scripted models):
//
//   - Query may read any visible agent's state, but writes only effect
//     fields, and only through Cols.Assign (or the Assign of Cols.Env);
//   - Update may read and write only the agent's own fields;
//   - Query must be insensitive to neighbor *iteration order* beyond what
//     commutative effect combinators absorb. Every probe returns its rows
//     in ascending agent-ID order, so any residual order dependence is at
//     least deterministic.
//   - Partitions tick concurrently, so Query runs for agents of different
//     partitions at the same time and must not mutate shared model state.
//     Each invocation still sees its own window and its deterministic
//     ID-ordered rows; results are bit-identical to a serial run.
//     (Compiled BRASIL programs satisfy this via per-invocation frames.)
//   - The engine runs a local-effect model's query phases in any order
//     (grouped by tiles of grid cells, see part.query) and a non-local model's in
//     ascending agent-ID order within a partition, the order its Assigns
//     fold in; either way Query carries no state from one call to the
//     next.
type Model interface {
	// Schema describes the agent class.
	Schema() *agent.Schema
	// Query runs the query phase for the agent at row self of the column
	// window: env.State(f)[row] is field f of the row's copy, its probes
	// (Visible, Nearby) return rows, and Assign folds into a row's effect.
	Query(env *Cols, self int32)
	// Update runs the update phase: compute tick t+1 state from tick t
	// state and aggregated effects.
	Update(self *agent.Agent, u *UpdateCtx)
}

// NonLocalModel is implemented by models whose Query assigns effects to
// agents other than self. The engine then uses the two-reduce dataflow.
// Models without this method (or returning false) are run with the cheaper
// single-reduce dataflow, and any non-local Assign panics — silently
// dropping it would corrupt the simulation.
type NonLocalModel interface {
	HasNonLocalEffects() bool
}

// Env is the closure-style view of the query window, which Cols.Env
// returns: the same probes as Cols, yielding agents to a callback instead
// of rows. All iteration respects the schema's visibility bound and runs
// in ascending agent-ID order (see Model).
type Env interface {
	// Self returns the agent whose query phase is running.
	Self() *agent.Agent
	// ForEachVisible calls fn for every agent within the visibility bound
	// of self's position, including self (BRASIL's Extent<Class>; scripts
	// guard with p != this when needed).
	ForEachVisible(fn func(*agent.Agent))
	// Nearby is ForEachVisible restricted to the given radius (its
	// magnitude cropped to the visibility bound).
	Nearby(radius float64, fn func(*agent.Agent))
	// Assign folds value into target's effect field using the schema's
	// combinator. Assigning to an agent other than Self is a non-local
	// effect and requires the model to declare HasNonLocalEffects.
	Assign(target *agent.Agent, effectIndex int, value float64)
}

// UpdateCtx carries the update phase's context: deterministic per-agent
// randomness and agent lifecycle operations (used by the predator model).
type UpdateCtx struct {
	// Tick is the tick being completed (0-based).
	Tick uint64
	// RNG is seeded from (simulation seed, tick, agent ID) so results do
	// not depend on partitioning or scheduling.
	RNG *agent.RNG

	schema *agent.Schema
	self   agent.ID
	spawns []*agent.Agent
	nspawn int
	// rngv is the generator RNG points at when the engines reuse one
	// UpdateCtx across agents (reset re-seeds it in place, so the update
	// loop allocates nothing per agent).
	rngv agent.RNG
}

// reset re-arms a reused UpdateCtx for the next agent: re-seed the
// in-place RNG, clear the spawn batch (spawned agents were already emitted
// by the caller), and retarget the identity fields. The stream each agent
// sees is exactly what a freshly allocated UpdateCtx would produce.
func (u *UpdateCtx) reset(seed, tick uint64, schema *agent.Schema, self agent.ID) {
	u.Tick = tick
	u.rngv = agent.SeedRNG(seed, tick, self)
	u.RNG = &u.rngv
	u.schema = schema
	u.self = self
	u.spawns = u.spawns[:0]
	u.nspawn = 0
}

// Spawn allocates a new agent that joins the simulation next tick. The
// caller must set its state (including position) before Update returns.
// IDs are derived from (parent, tick, sequence) so spawning is
// deterministic under any distribution.
func (u *UpdateCtx) Spawn() *agent.Agent {
	a := agent.New(u.schema, agent.HashID(u.self, u.Tick, u.nspawn))
	u.nspawn++
	u.spawns = append(u.spawns, a)
	return a
}

// Kill marks the updating agent dead; it is removed at the tick boundary.
func (u *UpdateCtx) Kill(self *agent.Agent) { self.Dead = true }

func modelNonLocal(m Model) bool {
	if nl, ok := m.(NonLocalModel); ok {
		return nl.HasNonLocalEffects()
	}
	return false
}

func validateModel(m Model) error {
	s := m.Schema()
	if s == nil {
		return fmt.Errorf("engine: model has nil schema")
	}
	return s.Validate()
}
