package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/bigreddata/brace/internal/cluster"
)

// Mem is the in-process Transport: worker "nodes" are goroutines and every
// inbox lives in main memory. Payloads stay in memory (this is a simulated
// network); Message.Bytes carries the size the payload would occupy on the
// wire, supplied by the sender, so the cost model can charge transfer time
// without serializing.
//
// Close is the in-process crash: the phase it interrupts is lost, as it is
// to every process of a TCP run when one of them dies. The next AwaitPhase
// drops every queued message and returns ErrRestore, once; after that the
// Mem serves the restored run, as a re-admitted worker's new session does.
type Mem struct {
	mu      sync.Mutex
	inbox   [][]cluster.Message
	metrics *cluster.Metrics
	lost    atomic.Bool // Close interrupted the running phase
}

var _ Transport = (*Mem)(nil)

// NewMem creates an in-memory transport connecting n nodes.
func NewMem(n int) *Mem {
	return &Mem{
		inbox:   make([][]cluster.Message, n),
		metrics: cluster.NewMetrics(n),
	}
}

// N returns the number of nodes.
func (t *Mem) N() int { return len(t.inbox) }

// Send enqueues a message for the destination node.
func (t *Mem) Send(m cluster.Message) error {
	if m.To < 0 || int(m.To) >= len(t.inbox) {
		return fmt.Errorf("transport: send to unknown node %d", m.To)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inbox[m.To] = append(t.inbox[m.To], m)
	t.metrics.RecordSend(m.From, m.To, m.Bytes, m.From == m.To)
	return nil
}

// Drain removes and returns all messages queued for node n.
func (t *Mem) Drain(n cluster.NodeID) []cluster.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	msgs := t.inbox[n]
	t.inbox[n] = nil
	return msgs
}

// Metrics returns the transport's traffic counters.
func (t *Mem) Metrics() *cluster.Metrics { return t.metrics }

// FlushPhase is a no-op: in-memory sends are visible immediately.
func (t *Mem) FlushPhase() error { return nil }

// AwaitPhase completes the phase, unless Close interrupted it: then it
// drops every queued message and returns ErrRestore.
func (t *Mem) AwaitPhase() error {
	if !t.lost.CompareAndSwap(true, false) {
		return nil
	}
	t.mu.Lock()
	clear(t.inbox)
	t.mu.Unlock()
	return ErrRestore
}

// Close loses the phase it interrupts (see Mem).
func (t *Mem) Close() error {
	t.lost.Store(true)
	return nil
}
