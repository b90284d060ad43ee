package transport

import (
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/bigreddata/brace/internal/cluster"
)

// endPhase is the whole barrier: FlushPhase, then AwaitPhase, with nothing
// between them, as the runtime runs it.
func endPhase(tr Transport) error {
	if err := tr.FlushPhase(); err != nil {
		return err
	}
	return tr.AwaitPhase()
}

// fixture is a two-node cluster under the conformance suite, one node per
// process, so that on every implementation a self-send is the collocated
// delivery and a send to the other node crosses the network.
type fixture struct {
	// procs holds each process's transport once; node n's process is
	// procs[n%len(procs)] — Mem is one process holding both nodes.
	procs []Transport
	// arrived blocks until what process src sent and flushed as the given
	// phase has physically reached process dst, whether or not dst has
	// ended that phase itself. Nil where delivery is immediate.
	arrived func(t *testing.T, dst, src int, phase uint64)
}

func (f fixture) at(n cluster.NodeID) Transport { return f.procs[int(n)%len(f.procs)] }

func (f fixture) send(t *testing.T, from, to cluster.NodeID, tag, bytes int) {
	t.Helper()
	m := cluster.Message{From: from, To: to, Tag: tag, Payload: oneRow(float64(tag)), Bytes: bytes}
	if err := f.at(from).Send(m); err != nil {
		t.Fatal(err)
	}
}

func (f fixture) flushAll(t *testing.T) {
	t.Helper()
	for _, p := range f.procs {
		if err := p.FlushPhase(); err != nil {
			t.Fatal(err)
		}
	}
}

// awaitAll can run the awaits one after another: every marker is already
// out once flushAll returns.
func (f fixture) awaitAll(t *testing.T) {
	t.Helper()
	for _, p := range f.procs {
		if err := p.AwaitPhase(); err != nil {
			t.Fatal(err)
		}
	}
}

// tags returns the sorted tags of a drained batch, checking on the way that
// every message is addressed to node to and kept its payload.
func tags(t *testing.T, to cluster.NodeID, msgs []cluster.Message) []int {
	t.Helper()
	var out []int
	for _, m := range msgs {
		if m.To != to {
			t.Errorf("node %d drained a message addressed to %d", to, m.To)
		}
		if p, ok := batchOf(m.Payload); !ok || len(p) != 1 || p[0].A.State[0] != float64(m.Tag) {
			t.Errorf("payload of tag %d did not survive delivery: %#v", m.Tag, m.Payload)
		}
		out = append(out, m.Tag)
	}
	sort.Ints(out)
	return out
}

// TestConformance is the Transport contract, run over both
// implementations: what the mapreduce runtime may assume of any of them.
func TestConformance(t *testing.T) {
	impls := []struct {
		name string
		new  func(t *testing.T) fixture
	}{
		{"mem", func(t *testing.T) fixture {
			return fixture{procs: []Transport{NewMem(2)}}
		}},
		{"tcp", func(t *testing.T) fixture {
			trs, _, _ := miniCluster(t, 2, 2)
			return fixture{
				procs: []Transport{trs[0], trs[1]},
				arrived: func(t *testing.T, dst, src int, phase uint64) {
					t.Helper()
					// The marker travels behind the phase's Data frames on
					// the same connection, so once it is in, they are.
					deadline := time.Now().Add(5 * time.Second)
					for {
						trs[dst].mu.Lock()
						pt := &trs[dst].tallies[phase%phaseWindow]
						ok := pt.phase == phase && pt.marked[src]
						trs[dst].mu.Unlock()
						if ok {
							return
						}
						if time.Now().After(deadline) {
							t.Fatalf("phase %d of process %d never reached process %d", phase, src, dst)
						}
						time.Sleep(time.Millisecond)
					}
				},
			}
		}},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			t.Run("Nodes", func(t *testing.T) {
				f := impl.new(t)
				for i, p := range f.procs {
					if p.N() != 2 {
						t.Errorf("process %d: N = %d, want 2", i, p.N())
					}
					if err := p.Send(cluster.Message{From: 0, To: 9}); err == nil {
						t.Errorf("process %d accepted a send to an unknown node", i)
					}
				}
			})

			// A peer process that finished phase k is free to start sending
			// phase k+1 before this process has drained phase k.
			t.Run("RacingAheadPeerStaysQueued", func(t *testing.T) {
				f := impl.new(t)
				if len(f.procs) == 1 {
					t.Skip("one process: the runtime's own barrier orders every send and drain")
				}
				f.send(t, 1, 0, 1, 8)
				f.flushAll(t)
				// Process 1 completes phase 1 and races through phase 2's
				// sends and flush while process 0 is still in phase 1.
				if err := f.procs[1].AwaitPhase(); err != nil {
					t.Fatal(err)
				}
				f.send(t, 1, 0, 2, 8)
				if err := f.procs[1].FlushPhase(); err != nil {
					t.Fatal(err)
				}
				f.arrived(t, 0, 1, 2)
				if err := f.procs[0].AwaitPhase(); err != nil {
					t.Fatal(err)
				}
				if got := tags(t, 0, f.procs[0].Drain(0)); !slices.Equal(got, []int{1}) {
					t.Errorf("phase-1 Drain(0) = %v, want only [1]", got)
				}
				if err := endPhase(f.procs[0]); err != nil {
					t.Fatal(err)
				}
				if got := tags(t, 0, f.procs[0].Drain(0)); !slices.Equal(got, []int{2}) {
					t.Errorf("phase-2 Drain(0) = %v, want the early arrival [2]", got)
				}
				if err := f.procs[1].AwaitPhase(); err != nil {
					t.Fatal(err)
				}
			})

			// Senders meter, receivers do not: summed over processes every
			// delivery is counted once, as local or as sent.
			t.Run("MetersEachDeliveryOnce", func(t *testing.T) {
				f := impl.new(t)
				f.send(t, 0, 0, 1, 100)
				f.send(t, 1, 1, 2, 10)
				f.send(t, 0, 1, 3, 300)
				f.send(t, 1, 0, 4, 30)
				f.send(t, 1, 0, 5, 3)
				f.flushAll(t)
				f.awaitAll(t)
				var sum cluster.NodeMetrics
				for _, p := range f.procs {
					m := p.Metrics().Totals()
					sum.LocalMsgs += m.LocalMsgs
					sum.LocalBytes += m.LocalBytes
					sum.SentMsgs += m.SentMsgs
					sum.SentBytes += m.SentBytes
					sum.RecvMsgs += m.RecvMsgs
					sum.RecvBytes += m.RecvBytes
				}
				want := cluster.NodeMetrics{
					LocalMsgs: 2, LocalBytes: 110,
					SentMsgs: 3, SentBytes: 333,
					RecvMsgs: 3, RecvBytes: 333,
				}
				if sum != want {
					t.Errorf("metrics summed over processes = %+v, want %+v", sum, want)
				}
				if m := f.at(1).Metrics().Node(1); m.SentMsgs != 2 || m.LocalMsgs != 1 {
					t.Errorf("node 1's own counters = %+v, want 2 sent and 1 local", m)
				}
			})

			t.Run("Close", func(t *testing.T) {
				f := impl.new(t)
				for i, p := range f.procs {
					if err := p.Close(); err != nil {
						t.Errorf("process %d: Close: %v", i, err)
					}
				}
			})
		})
	}
}
