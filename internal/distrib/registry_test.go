package distrib

import (
	"net"
	"testing"
	"time"

	"github.com/bigreddata/brace/internal/transport"
)

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(lis)
	t.Cleanup(reg.Close)
	return reg
}

// registerFake dials the registry like a daemon would and announces addr;
// closing the returned connection unregisters it.
func registerFake(t *testing.T, reg *Registry, addr string, sessions int) *transport.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", reg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	fc := transport.NewConn(nc)
	t.Cleanup(func() { fc.Close() })
	err = fc.Send(&transport.Frame{Kind: transport.FrameRegister, Reg: &transport.Registration{
		Addr: addr, Sessions: sessions,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return fc
}

func waitWorkers(t *testing.T, reg *Registry, n int) []RegisteredWorker {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ws := reg.Workers()
		if len(ws) == n {
			return ws
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry never settled at %d workers: %v", n, ws)
		}
		time.Sleep(time.Millisecond)
	}
}

// Await gates on fleet width and returns addresses in announcement order;
// a dropped registration connection unregisters its worker.
func TestRegistryAwaitAndUnregister(t *testing.T) {
	reg := newTestRegistry(t)

	done := make(chan []string, 1)
	go func() {
		addrs, err := reg.Await(2, 10*time.Second)
		if err != nil {
			t.Error(err)
		}
		done <- addrs
	}()

	registerFake(t, reg, "10.0.0.1:7101", 0)
	waitWorkers(t, reg, 1) // announcement order is arrival order, so serialize
	c2 := registerFake(t, reg, "10.0.0.2:7101", 0)

	select {
	case addrs := <-done:
		if len(addrs) != 2 || addrs[0] != "10.0.0.1:7101" || addrs[1] != "10.0.0.2:7101" {
			t.Fatalf("await returned %v", addrs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Await never returned")
	}

	// Dropping a daemon's registration connection unregisters it: a dead
	// daemon must not be handed to the next run.
	c2.Close()
	ws := waitWorkers(t, reg, 1)
	if ws[0].Addr != "10.0.0.1:7101" {
		t.Fatalf("survivor = %v", ws[0])
	}
}

// Await times out with a sized error instead of hanging when the fleet
// never reaches the requested width.
func TestRegistryAwaitTimeout(t *testing.T) {
	reg := newTestRegistry(t)
	registerFake(t, reg, "10.0.0.1:7101", 0)
	if _, err := reg.Await(2, 100*time.Millisecond); err == nil {
		t.Fatal("Await(2) succeeded with one worker")
	}
}

// Load updates streamed on the registration connection show up in
// Workers(); Events surfaces each *new* registration exactly once.
func TestRegistryLoadUpdatesAndEvents(t *testing.T) {
	reg := newTestRegistry(t)
	fc := registerFake(t, reg, "10.0.0.1:7101", 1)

	select {
	case ev := <-reg.Events():
		if ev.Addr != "10.0.0.1:7101" {
			t.Fatalf("event for %q", ev.Addr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no registration event")
	}

	// A load update must not re-announce the worker.
	err := fc.Send(&transport.Frame{Kind: transport.FrameRegister, Reg: &transport.Registration{
		Addr: "10.0.0.1:7101", Sessions: 3, PeerLinks: 5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ws := reg.Workers()
		if len(ws) == 1 && ws[0].Sessions == 3 && ws[0].PeerLinks == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("load update never landed: %v", ws)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case ev := <-reg.Events():
		t.Fatalf("load update produced a spurious event: %v", ev)
	default:
	}
}

// The real daemon loop end to end: ServeWith with Register announces the
// listener's own address and keeps the registration alive until the
// daemon stops.
func TestRegistryDaemonAnnounces(t *testing.T) {
	reg := newTestRegistry(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ServeWith(lis, ServeOptions{Register: reg.Addr()})

	addrs, err := reg.Await(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if addrs[0] != lis.Addr().String() {
		t.Fatalf("announced %q, listening on %q", addrs[0], lis.Addr())
	}

	// Stopping the daemon closes its registration connection, which
	// unregisters it.
	lis.Close()
	waitWorkers(t, reg, 0)
}
