package transport

import (
	"net"
	"testing"
	"time"

	"github.com/bigreddata/brace/internal/cluster"
)

// connPair returns a framed loopback connection pair (coordinator side,
// worker side).
func connPair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	d, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	coord, worker := NewConn(a), NewConn(d)
	t.Cleanup(func() { coord.Close(); worker.Close() })
	return coord, worker
}

// recvWithin reads one frame with a test deadline, returning nil on
// timeout.
func recvWithin(t *testing.T, c *Conn, d time.Duration) *Frame {
	t.Helper()
	type res struct {
		f   *Frame
		err error
	}
	ch := make(chan res, 1)
	go func() {
		f, err := c.Recv()
		ch <- res{f, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return nil
		}
		return r.f
	case <-time.After(d):
		return nil
	}
}

// A worker's transport reader answers heartbeat pings with pongs — no
// engine participation, so a worker deep in a compute phase still proves
// its process alive.
func TestPingAnsweredByPong(t *testing.T) {
	coord, worker := connPair(t)
	tcp := NewTCP(worker, 1, 2, 2, []int{0, 1}, 1)
	defer tcp.Close()

	if err := coord.Send(&Frame{Kind: FramePing, Gen: 1}); err != nil {
		t.Fatal(err)
	}
	f := recvWithin(t, coord, 5*time.Second)
	if f == nil || f.Kind != FramePong {
		t.Fatalf("got %+v, want a Pong", f)
	}
	if f.Src != 1 {
		t.Errorf("pong.Src = %d, want 1", f.Src)
	}
}

// A Stall fault freezes the transport without any socket error: pings go
// unanswered, engine operations block, and only closing the connection
// (the coordinator's force-drop) unwinds them.
func TestStallSilencesWorker(t *testing.T) {
	coord, worker := connPair(t)
	tcp := NewTCP(worker, 0, 2, 2, []int{0, 1}, 1)
	defer tcp.Close()
	st := &FaultAt{Transport: tcp, Phase: 1, Do: tcp.Stall}

	done := make(chan error, 1)
	go func() { done <- endPhase(st) }() // freezes at phase 1

	// Give the stall a moment to take effect, then ping: no pong.
	time.Sleep(50 * time.Millisecond)
	if err := coord.Send(&Frame{Kind: FramePing, Gen: 1}); err != nil {
		t.Fatal(err)
	}
	if f := recvWithin(t, coord, 300*time.Millisecond); f != nil {
		t.Fatalf("stalled worker answered with %+v", f)
	}
	select {
	case err := <-done:
		t.Fatalf("stalled phase barrier returned early: %v", err)
	default:
	}

	// A send while stalled blocks too; both unwind when the coordinator
	// closes the connection.
	sendDone := make(chan error, 1)
	go func() { sendDone <- tcp.Send(cluster.Message{From: 0, To: 1}) }()
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-sendDone:
		t.Fatalf("send on a stalled transport returned early: %v", err)
	default:
	}
	coord.Close()
	for i, ch := range []chan error{done, sendDone} {
		select {
		case err := <-ch:
			if err == nil {
				t.Errorf("op %d returned nil after force-drop, want the read error", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("op %d still blocked after the connection closed", i)
		}
	}
}

// A peer that stops draining its socket must not be able to block a
// Send forever once a write timeout is set — the coordinator's control
// loop depends on it.
func TestConnWriteTimeout(t *testing.T) {
	a, b := net.Pipe() // unbuffered: a write blocks until the peer reads
	defer a.Close()
	defer b.Close()
	c := NewConn(a)
	c.SetWriteTimeout(100 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- c.Send(&Frame{Kind: FramePing}) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("write to a non-reading peer succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write timeout never fired")
	}
}
