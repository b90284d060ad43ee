// Worker discovery: instead of pre-wiring -worker-addrs into every
// coordinator, worker daemons dial a registry socket and announce the
// address they serve sessions on (bracesim-worker -register). The
// coordinator (or the bracesimd daemon) owns the registry, waits for the
// fleet it needs, and keeps listening: a worker that registers mid-run is
// admitted into a running fleet through the same placement path a
// re-admitted worker uses.
package distrib

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/bigreddata/brace/internal/transport"
)

// RegisteredWorker is one announced worker daemon as the registry sees it.
type RegisteredWorker struct {
	// Addr is the address the daemon serves coordinator and peer sessions
	// on — what a coordinator dials and what peer rosters carry.
	Addr string
	// Sessions and PeerLinks are the daemon's self-reported load, updated
	// as long as its registration connection stays up.
	Sessions  int
	PeerLinks int
}

// Registry accepts worker registrations on a listener. Each daemon keeps
// its registration connection open and streams load updates on it; the
// connection dropping unregisters the worker (a dead daemon must not be
// handed to new runs). Await gates run start on fleet width, and Events
// surfaces each new registration exactly once to whoever owns the
// registry — the coordinator (mid-run admission) or the service manager
// (fleet growth), never both.
type Registry struct {
	lis net.Listener

	mu      sync.Mutex
	cond    *sync.Cond
	workers map[string]*RegisteredWorker
	order   []string
	events  chan RegisteredWorker
	closed  bool
}

// NewRegistry starts a registry on lis and returns it; Close stops the
// accept loop and drops every registration connection.
func NewRegistry(lis net.Listener) *Registry {
	r := &Registry{
		lis:     lis,
		workers: make(map[string]*RegisteredWorker),
		events:  make(chan RegisteredWorker, 64),
	}
	r.cond = sync.NewCond(&r.mu)
	go r.acceptLoop()
	return r
}

// Addr is the registry's listen address — what workers pass to -register.
func (r *Registry) Addr() string { return r.lis.Addr().String() }

func (r *Registry) acceptLoop() {
	for {
		conn, err := r.lis.Accept()
		if err != nil {
			return
		}
		go r.serve(conn)
	}
}

// serve handles one daemon's registration connection: an announcing
// Registration frame, then load updates until the connection dies.
func (r *Registry) serve(conn net.Conn) {
	fc := transport.NewConn(conn)
	defer fc.Close()
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	f, err := fc.Recv()
	if err != nil || f.Kind != transport.FrameRegister || f.Reg == nil || f.Reg.Addr == "" {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	addr := f.Reg.Addr

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	w, known := r.workers[addr]
	if !known {
		w = &RegisteredWorker{Addr: addr}
		r.workers[addr] = w
		r.order = append(r.order, addr)
	}
	w.Sessions, w.PeerLinks = f.Reg.Sessions, f.Reg.PeerLinks
	ev := *w
	r.cond.Broadcast()
	r.mu.Unlock()
	if !known {
		select {
		case r.events <- ev:
		default: // owner not listening; Await/Workers still see it
		}
	}

	for {
		f, err := fc.Recv()
		if err != nil {
			break
		}
		if f.Kind != transport.FrameRegister || f.Reg == nil {
			break
		}
		r.mu.Lock()
		w.Sessions, w.PeerLinks = f.Reg.Sessions, f.Reg.PeerLinks
		r.mu.Unlock()
	}

	// The daemon is gone: unregister so no new run is placed on it.
	// (Running coordinators notice through their own liveness machinery.)
	r.mu.Lock()
	if r.workers[addr] == w {
		delete(r.workers, addr)
		for i, a := range r.order {
			if a == addr {
				r.order = append(r.order[:i], r.order[i+1:]...)
				break
			}
		}
	}
	r.mu.Unlock()
}

// Workers snapshots the currently registered daemons in announcement
// order.
func (r *Registry) Workers() []RegisteredWorker {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RegisteredWorker, 0, len(r.order))
	for _, a := range r.order {
		out = append(out, *r.workers[a])
	}
	return out
}

// Events surfaces each new registration once, to the registry's single
// owner. The channel is buffered; Await/Workers remain the source of
// truth if the owner falls behind.
func (r *Registry) Events() <-chan RegisteredWorker { return r.events }

// Await blocks until n workers are registered (returning their addresses,
// announcement-ordered) or the timeout elapses.
func (r *Registry) Await(n int, timeout time.Duration) ([]string, error) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
	defer timer.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.order) < n && !r.closed && time.Now().Before(deadline) {
		r.cond.Wait()
	}
	if len(r.order) < n {
		return nil, fmt.Errorf("distrib: %d of %d workers registered within %v", len(r.order), n, timeout)
	}
	return append([]string(nil), r.order[:n]...), nil
}

// Close stops the registry.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	_ = r.lis.Close()
}
