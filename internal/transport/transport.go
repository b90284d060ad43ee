// Package transport is the wire layer of the BRACE cluster: it delivers
// the messages that flow between partitions of the iterated MapReduce
// dataflow, behind one interface with two implementations.
//
//   - Mem keeps every inbox in process memory. It is the simulated-cluster
//     configuration the paper's scale-up figures are reproduced on, and the
//     reference semantics for everything else.
//   - TCP connects real OS processes through a coordinator: messages for
//     partitions owned by another process travel as length-prefixed
//     frames over sockets — a fixed header, then envelope batches as
//     column blocks (wire.go, codec.go) — with an end-of-phase marker
//     protocol standing in for the in-memory runtime's barriers.
//
// The runtime is bulk-synchronous: a phase's sends all complete before any
// receiver drains its inbox, so the interface exposes phase-oriented
// Send / FlushPhase / AwaitPhase / Drain rather than streaming channels.
//
// A failure is a lost phase, on both: a closed Mem, or a TCP worker that
// dies or stalls, makes AwaitPhase (over TCP, any blocked operation)
// return ErrRestore. Deciding the rollback is the master's business
// (engine.Master), in process as across processes.
package transport

import (
	"errors"

	"github.com/bigreddata/brace/internal/cluster"
)

// ErrRestore is returned by a transport operation when the phase it ends
// was lost — a Mem was closed, or the coordinator of a TCP run ordered a
// restore because a worker died at or before this barrier. The caller must
// unwind its tick loop and resume from the master's checkpoint (in
// process: Master.Rewind, then Reset; over TCP: AwaitRestore, then Reset).
var ErrRestore = errors.New("transport: restore directive pending")

// Transport delivers messages between the nodes (= partitions) of a BRACE
// cluster and meters every delivery.
//
// Send is safe for concurrent use by many sending nodes; Drain(n) must not
// race with sends to n — the runtime's phase structure guarantees this:
// every worker finishes its sends, then FlushPhase and AwaitPhase are each
// called once, then workers drain.
type Transport interface {
	// N returns the number of nodes.
	N() int
	// Send enqueues a message for the destination node.
	Send(m cluster.Message) error
	// Drain removes and returns all messages queued for node n from the
	// phases ended so far, in arrival order. Arrival order is deliberately
	// *not* part of the runtime's semantics (the state-effect pattern makes
	// reducers order-independent); tests shuffle drained batches to enforce
	// that. It is complete only after AwaitPhase.
	Drain(n cluster.NodeID) []cluster.Message
	// FlushPhase is the first half of the send/drain boundary, called after
	// all of a phase's sends complete: it declares this process's sends for
	// the phase complete (networked transports emit their end-of-phase
	// marker) without waiting for peers; Mem is a no-op.
	FlushPhase() error
	// AwaitPhase is the second half: it blocks until every live peer
	// process has flushed the same phase and everything it sent has
	// arrived, guaranteeing complete inboxes. Exactly one AwaitPhase must
	// follow each FlushPhase.
	AwaitPhase() error
	// Metrics returns this process's traffic counters. For multi-process
	// transports each process meters the messages it sends (so summing
	// Totals across processes counts each delivery exactly once).
	Metrics() *cluster.Metrics
	// Close releases any resources (connections, goroutines). The phase
	// it interrupts is lost; on a Mem that is all it does.
	Close() error
}

// OwnerProc maps a partition to the worker process computing it when
// parts partitions are split across procs processes as contiguous blocks.
// It is the inverse of PartsOf.
func OwnerProc(part, parts, procs int) int {
	return ((part+1)*procs - 1) / parts
}

// PartsOf returns the contiguous block of partitions owned by one worker
// process: [proc·parts/procs, (proc+1)·parts/procs).
func PartsOf(proc, parts, procs int) []int {
	lo, hi := proc*parts/procs, (proc+1)*parts/procs
	out := make([]int, 0, hi-lo)
	for p := lo; p < hi; p++ {
		out = append(out, p)
	}
	return out
}
