package transport

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bigreddata/brace/internal/agent"
	"github.com/bigreddata/brace/internal/cluster"
)

type hubResult struct {
	finals []*FinalReport
	err    error
}

// blockAssign is the contiguous-block placement the coordinator computes
// for a fresh run.
func blockAssign(parts, procs int) []int {
	assign := make([]int, parts)
	for p := range assign {
		assign[p] = OwnerProc(p, parts, procs)
	}
	return assign
}

// miniCluster wires procs worker-side TCP transports to a running Hub over
// real loopback sockets and returns the transports, the worker-side framed
// conns (for final reports), and a result channel fed by a minimal control
// loop (collect finals; abort on error or disconnect — what distrib's
// coordinator does, minus recovery).
func miniCluster(t testing.TB, procs, parts int) ([]*TCP, []*Conn, chan hubResult) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })

	assign := blockAssign(parts, procs)
	hub := NewHub(parts, procs, assign)
	workers := make([]*Conn, procs)
	for i := 0; i < procs; i++ {
		d, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		a, err := lis.Accept()
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = NewConn(d)
		hub.Attach(i, NewConn(a))
	}
	trs := make([]*TCP, procs)
	for i := range trs {
		trs[i] = NewTCP(workers[i], i, procs, parts, assign, 1)
		tr := trs[i]
		t.Cleanup(func() { tr.Close() })
	}
	res := make(chan hubResult, 1)
	go func() {
		finals := make([]*FinalReport, procs)
		need := procs
		for ev := range hub.Events() {
			if ev.Frame == nil {
				hub.Close()
				res <- hubResult{nil, ev.Err}
				return
			}
			switch ev.Frame.Kind {
			case FrameFinal:
				if finals[ev.Src] == nil {
					need--
				}
				finals[ev.Src] = ev.Frame.Final
				if need == 0 {
					res <- hubResult{finals, nil}
					return
				}
			case FrameError:
				hub.Close()
				res <- hubResult{nil, errors.New(ev.Frame.Err)}
				return
			}
		}
	}()
	return trs, workers, res
}

func TestTCPRoutesAndMeters(t *testing.T) {
	trs, conns, res := miniCluster(t, 2, 4) // proc0 owns {0,1}, proc1 owns {2,3}

	pl := []*Envelope{{A: &agent.Agent{ID: 1, State: []float64{1, 2, 3}}}}
	if err := trs[0].Send(cluster.Message{From: 0, To: 1, Tag: 5, Payload: pl, Bytes: 24}); err != nil {
		t.Fatal(err)
	}
	if err := trs[0].Send(cluster.Message{From: 1, To: 2, Tag: 5, Payload: pl, Bytes: 24}); err != nil {
		t.Fatal(err)
	}
	if err := trs[1].Send(cluster.Message{From: 3, To: 0, Tag: 5, Payload: pl, Bytes: 24}); err != nil {
		t.Fatal(err)
	}

	// The phase barrier is a rendezvous: both processes must enter it.
	var wg sync.WaitGroup
	for _, tr := range trs {
		wg.Add(1)
		go func(tr *TCP) {
			defer wg.Done()
			if err := endPhase(tr); err != nil {
				t.Error(err)
			}
		}(tr)
	}
	wg.Wait()

	if msgs := trs[0].Drain(1); len(msgs) != 1 || msgs[0].Tag != 5 {
		t.Fatalf("proc0 part1 (local) = %v", msgs)
	}
	got := trs[0].Drain(0)
	if len(got) != 1 {
		t.Fatalf("proc0 part0 (remote) = %v", got)
	}
	if p, ok := got[0].Payload.([]*Envelope); !ok || len(p) != 1 || p[0].A.ID != 1 || p[0].A.State[2] != 3 {
		t.Fatalf("payload did not survive the wire: %#v", got[0].Payload)
	}
	if msgs := trs[1].Drain(2); len(msgs) != 1 {
		t.Fatalf("proc1 part2 (remote) = %v", msgs)
	}

	// Sender-side metering: local on proc0, one net send each.
	m0, m1 := trs[0].Metrics().Totals(), trs[1].Metrics().Totals()
	if m0.LocalMsgs != 1 || m0.SentMsgs != 1 || m1.SentMsgs != 1 {
		t.Errorf("metering: proc0 %+v proc1 %+v", m0, m1)
	}
	if m0.SentBytes+m1.SentBytes != 48 {
		t.Errorf("net bytes = %d, want 48", m0.SentBytes+m1.SentBytes)
	}

	// Clean shutdown: both workers report finals, the control loop
	// returns them.
	for i, c := range conns {
		rep := &FinalReport{Proc: i, Ticks: 1, Net: trs[i].Metrics().Totals()}
		if err := c.Send(&Frame{Kind: FrameFinal, Src: i, Gen: 1, Final: rep}); err != nil {
			t.Fatal(err)
		}
	}
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	if len(r.finals) != 2 || r.finals[0].Proc != 0 || r.finals[1].Proc != 1 {
		t.Fatalf("finals = %+v", r.finals)
	}
	net := r.finals[0].Net.SentBytes + r.finals[1].Net.SentBytes
	if net != 48 {
		t.Errorf("aggregated net bytes = %d, want 48", net)
	}
}

// A worker failure must not leave its peers blocked at a phase barrier:
// the control loop tears the run down (when it does not recover) and
// the barrier returns an error.
func TestTCPErrorUnblocksPeers(t *testing.T) {
	trs, conns, res := miniCluster(t, 2, 2)

	done := make(chan error, 1)
	go func() { done <- endPhase(trs[1]) }()

	if err := conns[0].Send(&Frame{Kind: FrameError, Src: 0, Gen: 1, Err: "engine exploded"}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		// The peer must unblock with *some* error once the control loop
		// closes the connections.
		if err == nil {
			t.Fatal("phase barrier returned nil after worker failure")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer still blocked at phase barrier after worker failure")
	}
	if r := <-res; r.err == nil || !strings.Contains(r.err.Error(), "engine exploded") {
		t.Fatalf("hub err = %v", r.err)
	}
	// Subsequent sends fail fast instead of writing into a dead run.
	if err := trs[1].Send(cluster.Message{From: 1, To: 0, Payload: oneRow(1)}); err == nil {
		t.Error("send after peer failure should error")
	}
}

// Single-process distributed runs degenerate to local delivery with no
// peers to wait for.
func TestTCPSingleProc(t *testing.T) {
	trs, conns, res := miniCluster(t, 1, 3)
	if err := trs[0].Send(cluster.Message{From: 0, To: 2, Bytes: 8}); err != nil {
		t.Fatal(err)
	}
	if err := endPhase(trs[0]); err != nil {
		t.Fatal(err)
	}
	if msgs := trs[0].Drain(2); len(msgs) != 1 {
		t.Fatalf("drain = %v", msgs)
	}
	if m := trs[0].Metrics().Totals(); m.SentMsgs != 0 || m.LocalMsgs != 1 {
		t.Errorf("single-proc traffic should be all local: %+v", m)
	}
	conns[0].Send(&Frame{Kind: FrameFinal, Src: 0, Gen: 1, Final: &FinalReport{Proc: 0}})
	if r := <-res; r.err != nil {
		t.Fatal(r.err)
	}
}

// A worker sends from the moment its handshake completes, which can be
// before the coordinator has attached anyone. Nothing it sent may be lost:
// AttachAll relays no frame until every destination slot is live.
func TestHubAttachAllRelaysFramesSentBeforeAttach(t *testing.T) {
	var workers, coord []*Conn
	for i := 0; i < 2; i++ {
		c, w := connPair(t)
		workers, coord = append(workers, w), append(coord, c)
	}
	early := []*Frame{
		{Kind: FrameData, Src: 0, Gen: 1, Phase: 1, Dst: 1, Seq: 1, Msg: cluster.Message{From: 0, To: 1, Tag: 7, Payload: oneRow(1)}},
		{Kind: FrameEndPhase, Src: 0, Gen: 1, Phase: 1, Dst: 1, Count: 1},
	}
	for _, f := range early {
		if err := workers[0].Send(f); err != nil {
			t.Fatal(err)
		}
	}
	hub := NewHub(2, 2, []int{0, 1})
	defer hub.Close()
	hub.AttachAll(coord)
	for _, want := range early {
		got := recvWithin(t, workers[1], 5*time.Second)
		if got == nil || got.Kind != want.Kind || got.Src != 0 {
			t.Fatalf("process 1 received %+v, want process 0's early %v frame", got, want.Kind)
		}
	}
}

// directPair wires one worker TCP transport straight to a test-driven
// coordinator conn (no hub), so control frames can be injected verbatim.
func directPair(t *testing.T, proc, procs, parts int, assign []int) (*TCP, *Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	d, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	coord := NewConn(a)
	t.Cleanup(func() { coord.Close() })
	tr := NewTCP(NewConn(d), proc, procs, parts, assign, 1)
	t.Cleanup(func() { tr.Close() })
	return tr, coord
}

// A restore frame must unblock a worker waiting at a phase barrier with
// ErrRestore, and Reset must fence off stale-generation traffic while
// replaying frames of the new generation that arrived early.
func TestTCPRestoreFencesGenerations(t *testing.T) {
	tr, coord := directPair(t, 1, 2, 2, []int{0, 1})

	// The worker blocks at a barrier that will never complete (its peer
	// is dead); the coordinator orders a restore instead.
	done := make(chan error, 1)
	go func() { done <- endPhase(tr) }()

	// Early next-generation traffic from a peer that restored first: must
	// buffer, then replay at Reset.
	if err := coord.Send(&Frame{Kind: FrameData, Src: 0, Gen: 2, Phase: 1,
		Msg: cluster.Message{From: 0, To: 1, Tag: 9, Payload: oneRow(4), Bytes: 8}}); err != nil {
		t.Fatal(err)
	}
	// Stale old-generation traffic: must be invisible after Reset.
	if err := coord.Send(&Frame{Kind: FrameData, Src: 0, Gen: 1, Phase: 7,
		Msg: cluster.Message{From: 0, To: 1, Tag: 8, Payload: oneRow(5), Bytes: 8}}); err != nil {
		t.Fatal(err)
	}
	rest := &Restore{Gen: 2, Tick: 0, Assign: []int{0, 1}, Live: []bool{true, true}}
	if err := coord.Send(&Frame{Kind: FrameRestore, Gen: 2, Rest: rest}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrRestore) {
			t.Fatalf("phase barrier = %v, want ErrRestore", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("restore did not unblock the phase barrier")
	}
	r, err := tr.AwaitRestore()
	if err != nil || r.Gen != 2 {
		t.Fatalf("AwaitRestore = %+v, %v", r, err)
	}
	tr.Reset(r)

	// After reset: phase 1 of gen 2; the buffered gen-2 frame is visible
	// once its phase ends, the stale gen-1 frame is gone.
	if err := coord.Send(&Frame{Kind: FrameEndPhase, Src: 0, Gen: 2, Phase: 1}); err != nil {
		t.Fatal(err)
	}
	if err := endPhase(tr); err != nil {
		t.Fatal(err)
	}
	msgs := tr.Drain(1)
	if len(msgs) != 1 || msgs[0].Tag != 9 {
		t.Fatalf("post-restore drain = %v, want only the gen-2 frame", msgs)
	}
}

// A pending restore wins over a pending directive: the worker must unwind
// to the restore path rather than act on a stale barrier answer.
func TestTCPRestoreBeatsDirective(t *testing.T) {
	tr, coord := directPair(t, 1, 2, 2, []int{0, 1})

	if err := coord.Send(&Frame{Kind: FrameDirective, Gen: 1, Dir: &Directive{Tick: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Send(&Frame{Kind: FrameRestore, Gen: 2,
		Rest: &Restore{Gen: 2, Assign: []int{0, 1}, Live: []bool{true, true}}}); err != nil {
		t.Fatal(err)
	}
	// Wait until the restore is pending, then the directive must lose.
	if _, err := tr.AwaitRestore(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AwaitDirective(); !errors.Is(err, ErrRestore) {
		t.Fatalf("AwaitDirective = %v, want ErrRestore", err)
	}
}
