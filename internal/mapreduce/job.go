// Package mapreduce implements BRACE's special-purpose MapReduce runtime
// (paper §3.3): an iterated, main-memory, shared-nothing map → reduce
// (→ reduce₂) engine. It differs from a conventional MapReduce (Hadoop)
// runtime exactly where the paper says it must:
//
//   - ticks are short, so everything stays in main memory and the output of
//     one tick's final reduce feeds the next tick's map directly;
//   - map and reduce tasks for a partition are collocated on one worker, so
//     same-partition traffic bypasses the network: a worker's batch to
//     itself stays in its memory, never entering the transport, and is
//     metered as "local";
//   - the optional second reduce implements the map-reduce-reduce model for
//     non-local effect assignments (Table 1, Appendix A, Fig. 10);
//   - the master interacts with workers only at epoch boundaries.
//
// Every phase of a tick — map, reduce₁, reduce₂ — is the same superstep
// (Runtime.phase): compute into an outbox, send, end the transport's phase,
// collect. The transport only delivers; which workers are alive is this
// package's state, set from the FailurePlan between ticks, so a crashed
// worker is skipped and cut off here without the transport ever hearing of
// it. The next epoch boundary reports the crash as a LostWorkerError; the
// master (engine.Master) decides the rollback, applied through Reset.
//
// The runtime is generic over the value type V; the engine package
// instantiates it with agent envelopes.
package mapreduce

import (
	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/transport"
)

// Ctx carries per-invocation context into user functions.
type Ctx struct {
	// Tick is the current tick number (0-based).
	Tick uint64
	// Worker is the node executing this call. Partitions and workers are
	// 1:1 in BRACE — partition p's map/reduce tasks run on worker p.
	Worker int
}

// Emit routes a value to the partition part; the runtime delivers it to the
// task of the next phase on the worker owning that partition.
type Emit[V any] func(part int, v V)

// Job defines one iterated map-reduce(-reduce) computation.
type Job[V any] struct {
	// Name labels the job in errors and checkpoints.
	Name string

	// Map receives the values a worker holds at the start of a tick and
	// maps each one. For BRACE this is the update phase of tick t−1
	// followed by distribution/replication (mapᵗ₁ of Table 1). Emissions
	// are grouped by destination partition and delivered to Reduce1.
	Map func(ctx *Ctx, values []V, emit Emit[V])

	// Reduce1 receives every value emitted to this worker's partition and
	// runs the query phase (reduceᵗ₁). With no Reduce2, its emissions
	// become next tick's values at their destination partitions. With a
	// Reduce2, its emissions are the partially aggregated effect values
	// routed to owning partitions. When Reduce1Early is set, Reduce1 runs
	// once the phase has fully drained and receives only the values Early
	// did not: those sent by peers.
	Reduce1 func(ctx *Ctx, values []V, emit Emit[V])

	// Reduce1Early, when non-nil, is a window hook of the query phase: it
	// runs per worker on just the values the worker sent to *itself* during
	// map, between the map phase's FlushPhase and AwaitPhase — i.e. while
	// peer values are still in flight — and may not emit.
	Reduce1Early func(ctx *Ctx, self []V)

	// Reduce2, when non-nil, performs the global effect aggregation ⊕
	// (reduceᵗ₂). Its emissions become next tick's values. The identity
	// second map of the formal model (mapᵗ₂) "does not perform any
	// computation and can be eliminated in an implementation" — it is
	// eliminated here.
	Reduce2 func(ctx *Ctx, values []V, emit Emit[V])

	// ValueBytes is the wire size of one value in bytes, for the transport
	// meter and the network cost model.
	ValueBytes int
}

// Config tunes the runtime.
type Config struct {
	// Workers is the number of worker nodes (= partitions). Must be ≥ 1.
	Workers int

	// Transport overrides the message layer (default: a fresh in-memory
	// transport). A multi-process run passes the TCP transport here; its
	// node count must equal Workers.
	Transport transport.Transport

	// LocalParts restricts this runtime to computing the given partitions
	// (nil = all of them). Set by the distributed driver so each worker
	// process runs the same lockstep loop over its own partition block;
	// the transport's phase protocol delivers everything else. With
	// LocalParts set, Values/AllValues/OwnedCounts cover only the local
	// block, and failure injection and load balancing are unsupported
	// (the callers enforce this).
	LocalParts []int

	// EpochTicks is the number of ticks between master/worker
	// interactions (checkpoints, failure detection, rebalancing). The
	// paper amortizes coordination overhead across an epoch. Default 10.
	EpochTicks int

	// Failures optionally schedules worker crashes (for tests/ablations).
	// From the scheduled tick the worker loses its values, runs no phase
	// and receives nothing (batches addressed to it are dropped before the
	// transport sees them) until Reset revives it; the next epoch boundary
	// returns a LostWorkerError.
	Failures *cluster.FailurePlan

	// VClock, when non-nil, accounts virtual time: the runtime charges
	// network costs per message batch and calls Barrier after each
	// communication phase. Compute costs are charged by the application
	// inside Map/Reduce (it knows its work counters).
	VClock *cluster.VClock

	// Barrier, when non-nil, runs first at every epoch boundary that lost
	// no worker. A multi-process worker uses it for the coordinator
	// round-trip: ship epoch statistics, wait for the master's directive,
	// apply it. A returned error aborts RunTicks with that error (the
	// distributed worker unwinds this way when the coordinator orders a
	// restore).
	Barrier func(tick uint64) error

	// OnEpoch, when non-nil, runs at each epoch boundary after Barrier.
	// The in-process engine is its own master here: statistics, load
	// balancing and checkpoints. A returned error aborts RunTicks.
	OnEpoch func(tick uint64) error
}

// phase tags for transport messages.
const (
	tagMapOut = iota + 1
	tagReduce1Out
	tagReduce2Out
)
