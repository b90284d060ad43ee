// Package cluster models the shared-nothing cluster BRACE runs on: node
// identities, message and traffic metering types, and the virtual clock.
// The message-delivery mechanisms themselves (in-memory and TCP) live in
// internal/transport, and so do failures: a crash is a closed transport.
//
// The paper evaluates on 60 nodes of the Cornell Web Lab connected by
// 1 Gbit/s Ethernet. This reproduction defaults to a single machine, where
// the cluster is *simulated*: worker "nodes" are goroutines, the network is
// an in-memory metered transport, and — crucially for the scale-up figures —
// time is accounted by a virtual clock driven by a calibrated cost model
// rather than by wall-clock alone. Each node is charged for the compute
// work it actually performs (agents updated, index candidates visited) and
// for the bytes it ships to other nodes; a bulk-synchronous barrier then
// advances cluster time by the *maximum* charge across nodes, exactly the
// quantity that makes load imbalance visible in Figs. 7–8.
package cluster

import (
	"fmt"
	"sync"
)

// NodeID identifies a worker node in [0, N).
type NodeID int

// NodeMetrics counts traffic observed at one node. Local traffic is
// messages whose source and destination tasks are collocated on the same
// node and therefore bypass the network (§3.3 "Collocation of Tasks").
type NodeMetrics struct {
	SentMsgs   int64
	SentBytes  int64
	RecvMsgs   int64
	RecvBytes  int64
	LocalMsgs  int64
	LocalBytes int64
}

// Metrics aggregates per-node counters. It is safe for concurrent use.
type Metrics struct {
	mu   sync.Mutex
	node []NodeMetrics
}

// NewMetrics returns metrics for n nodes.
func NewMetrics(n int) *Metrics {
	return &Metrics{node: make([]NodeMetrics, n)}
}

// RecordSend meters one delivery from a sender's point of view. local
// marks collocated traffic that bypasses the network — same-node messages
// on the in-memory transport, same-process messages on the TCP transport
// (§3.3 "Collocation of Tasks"). Senders meter, receivers don't, so
// summing Totals across processes counts each delivery exactly once.
func (m *Metrics) RecordSend(from, to NodeID, bytes int, local bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if local {
		m.node[from].LocalMsgs++
		m.node[from].LocalBytes += int64(bytes)
		return
	}
	m.node[from].SentMsgs++
	m.node[from].SentBytes += int64(bytes)
	m.node[to].RecvMsgs++
	m.node[to].RecvBytes += int64(bytes)
}

// Node returns a copy of one node's counters.
func (m *Metrics) Node(id NodeID) NodeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.node[id]
}

// Totals sums counters across nodes.
func (m *Metrics) Totals() NodeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t NodeMetrics
	for _, n := range m.node {
		t.SentMsgs += n.SentMsgs
		t.SentBytes += n.SentBytes
		t.RecvMsgs += n.RecvMsgs
		t.RecvBytes += n.RecvBytes
		t.LocalMsgs += n.LocalMsgs
		t.LocalBytes += n.LocalBytes
	}
	return t
}

// NetworkFraction returns the fraction of all message bytes that crossed
// the network (vs. delivered locally through collocation). The collocation
// ablation asserts this drops when map and reduce tasks share nodes.
func (m *Metrics) NetworkFraction() float64 {
	t := m.Totals()
	total := t.SentBytes + t.LocalBytes
	if total == 0 {
		return 0
	}
	return float64(t.SentBytes) / float64(total)
}

// String implements fmt.Stringer.
func (m *Metrics) String() string {
	t := m.Totals()
	return fmt.Sprintf("net: %d msgs / %d B, local: %d msgs / %d B",
		t.SentMsgs, t.SentBytes, t.LocalMsgs, t.LocalBytes)
}
