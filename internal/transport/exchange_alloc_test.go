//go:build !race

package transport

import (
	"net"
	"testing"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
)

// meshCluster is miniCluster with the peer mesh up: each process's
// data-plane listener hands the links dialed to it to its transport, as a
// worker daemon does, so Data frames and markers travel worker to worker
// and the hub reads only progress notes.
func meshCluster(t *testing.T, procs, parts int) []*TCP {
	t.Helper()
	lis := make([]net.Listener, procs)
	peers := make([]string, procs)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		lis[i], peers[i] = l, l.Addr().String()
	}
	trs, _, _ := newCluster(t, procs, parts, peers)
	for i, l := range lis {
		go func(tr *TCP, l net.Listener) {
			for {
				nc, err := l.Accept()
				if err != nil {
					return
				}
				fc := NewConn(nc)
				if f, err := fc.Recv(); err != nil || f.Kind != FramePeerHello {
					fc.Close()
					continue
				} else if err := tr.AcceptPeer(fc, f.Peer); err != nil {
					t.Error(err)
				}
			}
		}(trs[i], l)
	}
	return trs
}

// TestTCPExchangeSteadyStateAllocs pins a TCP phase at zero objects once
// its buffers have grown: two processes each send a batch of replicas to
// the other over the peer mesh and one to their own other partition, end
// the phase and drain. Replicas decode into the phase's slot and the
// payload points into it, Data and EndPhase frames decode into each
// connection's reused Frame (the hub's progress notes too), inboxes and
// drained arrays are reused, and the barrier counts live in recycled
// phase tables.
func TestTCPExchangeSteadyStateAllocs(t *testing.T) {
	trs := meshCluster(t, 2, 4) // proc0 owns {0,1}, proc1 owns {2,3}
	var batches [2][]*Envelope
	for i := range batches {
		for k := 0; k < 8; k++ {
			a := &agent.Agent{ID: agent.ID(10*i + k), State: []float64{float64(k), 1, 2}, Effect: []float64{0}}
			batches[i] = append(batches[i], &Envelope{A: a, Replica: true, SrcPart: int32(2 * i)})
		}
	}
	phase := func() {
		for i, tr := range trs {
			own := cluster.NodeID(2 * i)
			for _, to := range []cluster.NodeID{cluster.NodeID(2 * (1 - i)), own + 1} {
				if err := tr.Send(cluster.Message{From: own, To: to, Tag: 1, Payload: &batches[i], Bytes: 8 * 40}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, tr := range trs {
			if err := tr.FlushPhase(); err != nil {
				t.Fatal(err)
			}
		}
		for _, tr := range trs {
			if err := tr.AwaitPhase(); err != nil {
				t.Fatal(err)
			}
		}
		for i, tr := range trs {
			for p := 2 * i; p < 2*i+2; p++ {
				msgs := tr.Drain(cluster.NodeID(p))
				if b, ok := batchOf(msgs[0].Payload); len(msgs) != 1 || !ok || len(b) != 8 {
					t.Fatalf("partition %d drained %v", p, msgs)
				}
			}
		}
	}
	for k := 0; k < 10; k++ {
		phase()
	}
	for i, tr := range trs {
		if n := tr.PeerLinks(); n != 2 {
			t.Fatalf("process %d has %d peer links, want one each way: the hub relayed the data plane", i, n)
		}
	}
	if avg := testing.AllocsPerRun(100, phase); avg > 0 {
		t.Errorf("a steady-state phase allocates %.1f objects, want 0", avg)
	}
}
