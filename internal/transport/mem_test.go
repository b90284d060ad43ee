package transport

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/bigreddata/brace/internal/cluster"
)

func TestMemSendDrain(t *testing.T) {
	tr := NewMem(3)
	if tr.N() != 3 {
		t.Fatalf("N = %d", tr.N())
	}
	if err := tr.Send(cluster.Message{From: 0, To: 1, Tag: 7, Payload: "a", Bytes: 10}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(cluster.Message{From: 2, To: 1, Tag: 7, Payload: "b", Bytes: 20}); err != nil {
		t.Fatal(err)
	}
	// In-memory sends are visible at once: Mem needs no phase end.
	msgs := tr.Drain(1)
	if len(msgs) != 2 {
		t.Fatalf("Drain len = %d", len(msgs))
	}
	if len(tr.Drain(1)) != 0 {
		t.Error("Drain did not clear inbox")
	}
	if err := tr.Send(cluster.Message{From: 0, To: 9}); err == nil {
		t.Error("send to unknown node accepted")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemLocalVsNetworkMetering(t *testing.T) {
	tr := NewMem(2)
	tr.Send(cluster.Message{From: 0, To: 0, Bytes: 100}) // collocated
	tr.Send(cluster.Message{From: 0, To: 1, Bytes: 300}) // network
	m := tr.Metrics().Totals()
	if m.LocalBytes != 100 || m.LocalMsgs != 1 {
		t.Errorf("local = %+v", m)
	}
	if m.SentBytes != 300 || m.SentMsgs != 1 || m.RecvBytes != 300 {
		t.Errorf("network = %+v", m)
	}
	frac := tr.Metrics().NetworkFraction()
	if math.Abs(frac-0.75) > 1e-12 {
		t.Errorf("NetworkFraction = %v, want 0.75", frac)
	}
	n0 := tr.Metrics().Node(0)
	if n0.SentBytes != 300 || n0.LocalBytes != 100 {
		t.Errorf("node0 = %+v", n0)
	}
	if !strings.Contains(tr.Metrics().String(), "net:") {
		t.Error("Metrics.String format")
	}
}

func TestMemConcurrentSends(t *testing.T) {
	tr := NewMem(4)
	var wg sync.WaitGroup
	const per = 500
	for from := 0; from < 4; from++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Send(cluster.Message{From: cluster.NodeID(f), To: cluster.NodeID((f + 1) % 4), Bytes: 1})
			}
		}(from)
	}
	wg.Wait()
	total := 0
	for n := 0; n < 4; n++ {
		total += len(tr.Drain(cluster.NodeID(n)))
	}
	if total != 4*per {
		t.Errorf("delivered %d, want %d", total, 4*per)
	}
}

// Block assignment must be a bijection: every partition has exactly one
// owning process, and that process's block contains it.
func TestPartitionOwnershipConsistent(t *testing.T) {
	for procs := 1; procs <= 12; procs++ {
		for parts := procs; parts <= 24; parts++ {
			seen := make([]bool, parts)
			for proc := 0; proc < procs; proc++ {
				for _, p := range PartsOf(proc, parts, procs) {
					if seen[p] {
						t.Fatalf("parts=%d procs=%d: partition %d in two blocks", parts, procs, p)
					}
					seen[p] = true
					if got := OwnerProc(p, parts, procs); got != proc {
						t.Fatalf("parts=%d procs=%d: OwnerProc(%d) = %d, want %d", parts, procs, p, got, proc)
					}
				}
			}
			for p, ok := range seen {
				if !ok {
					t.Fatalf("parts=%d procs=%d: partition %d unowned", parts, procs, p)
				}
			}
		}
	}
}

// Close is the in-process crash: the phase it interrupts is lost. Its
// AwaitPhase drops every queued message and returns ErrRestore, once; the
// next phase runs clean, as the restored run's does. Close itself succeeds,
// and neither the clean nor the lost AwaitPhase allocates.
func TestMemCloseLosesThePhase(t *testing.T) {
	tr := NewMem(2)
	tr.Send(cluster.Message{From: 0, To: 1, Tag: 1, Bytes: 8})
	if err := tr.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	tr.Send(cluster.Message{From: 1, To: 0, Tag: 1, Bytes: 8})
	if err := tr.FlushPhase(); err != nil {
		t.Fatal(err)
	}
	if err := tr.AwaitPhase(); !errors.Is(err, ErrRestore) {
		t.Fatalf("AwaitPhase after Close = %v, want ErrRestore", err)
	}
	for n := cluster.NodeID(0); n < 2; n++ {
		if msgs := tr.Drain(n); len(msgs) != 0 {
			t.Errorf("node %d drained %d messages of the lost phase", n, len(msgs))
		}
	}
	tr.Send(cluster.Message{From: 0, To: 1, Tag: 2, Bytes: 8})
	if err := endPhase(tr); err != nil {
		t.Fatalf("the phase after the lost one: %v", err)
	}
	if msgs := tr.Drain(1); len(msgs) != 1 || msgs[0].Tag != 2 {
		t.Errorf("the phase after the lost one delivered %v, want its one message", msgs)
	}
	if got := testing.AllocsPerRun(100, func() {
		tr.Close()
		tr.AwaitPhase()
		tr.AwaitPhase()
	}); got != 0 {
		t.Errorf("AwaitPhase allocates %v times", got)
	}
}
