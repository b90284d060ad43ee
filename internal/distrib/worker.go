package distrib

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/bigreddata/brace/internal/engine"
	"github.com/bigreddata/brace/internal/scenario"
	"github.com/bigreddata/brace/internal/transport"
)

// ServeOptions tunes a worker daemon's accept loop.
type ServeOptions struct {
	// Log receives session banners and errors (nil: silent).
	Log io.Writer
	// Once makes the daemon exit when its first coordinator session ends
	// (tests and one-shot jobs). Peer links are not sessions: the daemon
	// keeps accepting them while that session runs, so a mesh run works
	// over one-shot daemons.
	Once bool
	// Wrap, when non-nil, wraps each session's transport — always the
	// session's *transport.TCP — before the engine sees it. Fault-injection
	// tests use it (transport.FaultAt) to kill or freeze a worker, or break
	// one of its peer links, at a chosen phase; production passes nothing.
	Wrap func(tr transport.Transport, h *transport.Hello) transport.Transport
	// CoordTimeout is the worker-side liveness watchdog: a session whose
	// coordinator has been completely silent for this long is aborted,
	// freeing the daemon for the next coordinator. With heartbeats on
	// (the coordinator default) a healthy coordinator is never silent
	// for more than the ping interval, so set this to a comfortable
	// multiple of it. 0 disables the watchdog — a worker then waits on a
	// dead coordinator forever, as before v3.
	CoordTimeout time.Duration
	// Register, when non-empty, is a registry address (see Registry) the
	// daemon announces itself to instead of being pre-wired into a
	// coordinator's -worker-addrs: it dials the registry, announces the
	// address it serves sessions on, and keeps the connection open
	// streaming load updates (active sessions, open peer links). The
	// registry drops the entry when the connection dies; the daemon
	// redials with backoff, so a restarted registry re-learns its fleet.
	Register string
	// Advertise is the session address announced to the registry.
	// Defaults to the listener's address — right for loopback tests,
	// wrong for a daemon bound to a wildcard, which must say what the
	// rest of the fleet can actually dial.
	Advertise string
	// Drain, when non-nil and closed, shuts the daemon down gracefully:
	// the accept loop stops, and every active session exits at its next
	// epoch barrier — after the barrier round completes (stats shipped,
	// directive applied, checkpoint delivered), so the coordinator holds
	// the freshest possible rollback state — by closing its connection
	// *without* a FrameError. To the coordinator that exit is a crash, not
	// a deterministic failure, so it recovers the run on the surviving
	// fleet instead of aborting it. A session parked after its final
	// report drains when the coordinator closes the run (or its watchdog
	// trips).
	Drain <-chan struct{}

	// sessions routes incoming peer-link dials (FramePeerHello) to the
	// coordinator session they belong to. ServeWith installs one per
	// daemon.
	sessions *sessionSet
}

// sessionKey names one coordinator session within a daemon: peer links
// address sessions by (run, process).
func sessionKey(runID string, proc int) string {
	return fmt.Sprintf("%s/%d", runID, proc)
}

// peerAwaitTimeout bounds how long an incoming peer link waits for its
// session: peers dial as soon as their own handshakes complete, possibly
// before this daemon's session for the same run has finished its
// handshake, so arrival-before-registration is a race to absorb, not an
// error — but a peer link for a run this daemon will never host must not
// hold a connection forever.
const peerAwaitTimeout = 10 * time.Second

// sessionSet is a daemon's live coordinator sessions, keyed by
// sessionKey. It exists for two consumers: incoming peer links await the
// session they belong to, and the registration loop reports session and
// peer-link counts as the daemon's load.
type sessionSet struct {
	mu   sync.Mutex
	cond *sync.Cond
	m    map[string]*transport.TCP
}

func newSessionSet() *sessionSet {
	s := &sessionSet{m: make(map[string]*transport.TCP)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *sessionSet) put(key string, t *transport.TCP) {
	s.mu.Lock()
	s.m[key] = t
	s.cond.Broadcast()
	s.mu.Unlock()
}

// drop removes the session only if it still owns the key — a rejoined
// session for the same (run, process) replaces the dead one, and the dead
// session's deferred drop must not evict its replacement.
func (s *sessionSet) drop(key string, t *transport.TCP) {
	s.mu.Lock()
	if s.m[key] == t {
		delete(s.m, key)
	}
	s.mu.Unlock()
}

// await blocks until the keyed session exists or the timeout elapses.
func (s *sessionSet) await(key string, timeout time.Duration) (*transport.TCP, error) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.m[key] == nil && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	if t := s.m[key]; t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("distrib: no session %s on this daemon", key)
}

// load snapshots the daemon's self-reported registry load.
func (s *sessionSet) load() (sessions, peerLinks int) {
	s.mu.Lock()
	tcps := make([]*transport.TCP, 0, len(s.m))
	for _, t := range s.m { //bracevet:allow maporder commutative sum of per-session load figures; order unobservable
		tcps = append(tcps, t)
	}
	s.mu.Unlock()
	for _, t := range tcps {
		peerLinks += t.PeerLinks()
	}
	return len(tcps), peerLinks
}

// ServeWith runs the worker daemon's accept loop. Each accepted connection
// is one coordinator session — a complete simulation, or a re-admission
// into a recovering one — and sessions run concurrently: a fleet daemon
// hosts partitions of many runs at once, each session its own framed
// stream. With Once set it returns the first session's error as soon as
// that session ends; otherwise it serves until the listener closes.
// Session errors are logged and do not stop the daemon — a failed run must
// not take the worker down with it, and a coordinator recovering from this
// worker's death re-dials the same daemon to re-admit it. When
// ServeOptions.Drain closes, ServeWith stops accepting, waits for every
// active session to drain, and returns nil.
func ServeWith(lis net.Listener, so ServeOptions) error {
	so.sessions = newSessionSet()
	var wg sync.WaitGroup
	defer wg.Wait()
	if so.Register != "" {
		adv := so.Advertise
		if adv == "" {
			adv = lis.Addr().String()
		}
		regStop := make(chan struct{})
		defer close(regStop)
		go register(so.Register, adv, so.sessions, regStop)
	}
	if so.Drain != nil {
		drainDone := make(chan struct{})
		defer close(drainDone)
		go func() {
			select {
			case <-so.Drain:
				lis.Close() // unblocks Accept; sessions exit at their barriers
			case <-drainDone:
			}
		}()
	}
	// Once: the first coordinator session's result. Its goroutine closes
	// the listener to end the accept loop, which then returns the result.
	var first chan error
	if so.Once {
		first = make(chan error, 1)
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			select {
			case err := <-first:
				return err // the caller reports it
			default:
			}
			if draining(so.Drain) {
				return nil // deliberate shutdown; wg wait covers the sessions
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			peer, err := serveConn(conn, so)
			if so.Once && !peer {
				select {
				case first <- err:
					lis.Close()
					return
				default: // a second coordinator dialed mid-session; not the one we exit on
				}
			}
			if err != nil && so.Log != nil {
				fmt.Fprintf(so.Log, "bracesim-worker: session: %v\n", err)
			}
		}()
	}
}

// registerInterval paces the daemon's load updates to its registry.
const registerInterval = time.Second

// register maintains the daemon's registry connection: announce the
// session address, then stream load updates until stop closes; any
// failure redials with capped backoff.
func register(registry, advertise string, ss *sessionSet, stop <-chan struct{}) {
	backoff := 100 * time.Millisecond
	for {
		select {
		case <-stop:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", registry, 5*time.Second)
		if err != nil {
			select {
			case <-stop:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
			continue
		}
		backoff = 100 * time.Millisecond
		fc := transport.NewConn(conn)
		announce(fc, advertise, ss, stop)
		fc.Close()
	}
}

// announce streams Registration frames on one registry connection until
// it fails or the daemon stops.
func announce(fc *transport.Conn, advertise string, ss *sessionSet, stop <-chan struct{}) {
	t := time.NewTicker(registerInterval)
	defer t.Stop()
	for {
		sessions, links := ss.load()
		if err := fc.Send(&transport.Frame{Kind: transport.FrameRegister, Reg: &transport.Registration{
			Addr:      advertise,
			Sessions:  sessions,
			PeerLinks: links,
		}}); err != nil {
			return
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// errDraining is the sentinel a draining session's barrier hook returns:
// the epoch round just completed and the daemon wants out.
var errDraining = errors.New("distrib: worker draining")

// draining reports whether the drain channel (possibly nil) has closed.
func draining(d <-chan struct{}) bool {
	select {
	case <-d:
		return true
	default:
		return false
	}
}

// serveConn serves one accepted connection by its first frame: a fleet
// peer's link into one of this daemon's sessions (peer = true), or else a
// coordinator session.
func serveConn(conn net.Conn, so ServeOptions) (peer bool, err error) {
	fc := transport.NewConn(conn)
	f, err := fc.Recv()
	if err != nil {
		fc.Close()
		return false, fmt.Errorf("handshake: %w", err)
	}
	if f.Kind == transport.FramePeerHello && f.Peer != nil {
		// On success the session's transport owns the connection.
		return true, servePeer(fc, f.Peer, so)
	}
	return false, serveSession(fc, f, so)
}

// serveSession runs one coordinator session: handshake, rebuild the
// scenario locally, tick the partitions the coordinator assigned over the
// TCP transport — re-winding to coordinator checkpoints whenever a Restore
// arrives — and report the final owned envelopes.
func serveSession(fc *transport.Conn, f *transport.Frame, so ServeOptions) error {
	defer fc.Close()
	if f.Kind != transport.FrameHello || f.Hello == nil {
		fc.Send(&transport.Frame{Kind: transport.FrameAck, Err: "expected hello"})
		return fmt.Errorf("handshake: unexpected frame kind %d", f.Kind)
	}
	h := f.Hello

	reject := func(err error) error {
		fc.Send(&transport.Frame{Kind: transport.FrameAck, Err: err.Error()})
		return fmt.Errorf("rejected run: %w", err)
	}
	sp, err := checkHello(h)
	if err != nil {
		return reject(err)
	}
	m, pop, err := sp.New(scenario.Config{Agents: h.Agents, Seed: h.Seed, Extent: h.Extent})
	if err != nil {
		return reject(err)
	}
	if err := fc.Send(&transport.Frame{Kind: transport.FrameAck}); err != nil {
		return err
	}
	local := ownedParts(h.Assign, h.Proc)
	if so.Log != nil {
		fmt.Fprintf(so.Log, "bracesim-worker: proc %d/%d gen %d: %s, %d agents, partitions %v, %d ticks\n",
			h.Proc, h.NumProcs, h.Gen, h.Scenario, len(pop), local, h.Ticks)
	}

	// The transport must exist before the engine: peers may start sending
	// as soon as their own handshakes complete. A re-admitted worker
	// (Gen > 1) joins one generation behind so the recovering generation's
	// early traffic buffers until its Restore applies.
	tGen := h.Gen
	rejoining := h.Gen > 1
	if rejoining {
		tGen = h.Gen - 1
	}
	tcp := transport.NewTCP(fc, h.Proc, h.NumProcs, h.Partitions, h.Assign, tGen)
	if len(h.Peers) > 0 {
		tcp.EnableMesh(h.RunID, h.Peers)
	}
	if h.RunID != "" {
		key := sessionKey(h.RunID, h.Proc)
		so.sessions.put(key, tcp)
		defer so.sessions.drop(key, tcp)
	}
	var tr transport.Transport = tcp
	if so.Wrap != nil {
		tr = so.Wrap(tcp, h)
	}
	if so.CoordTimeout > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go watchCoordinator(tcp, fc, so.CoordTimeout, stop)
	}
	// The barrier hook closes over the engine pointer, which is assigned
	// right after construction; the hook only fires inside RunTicks.
	var eng *engine.Distributed
	eng, err = engine.NewDistributed(m, pop, engine.Options{
		Workers:    h.Partitions,
		Index:      h.Index,
		Seed:       h.Seed,
		EpochTicks: h.EpochTicks,
		Transport:  tr,
		LocalParts: local,
		EpochBarrier: func(tick uint64) error {
			return workerBarrier(eng, tcp, h, tick, so.Drain)
		},
	})
	if err != nil {
		fc.Send(&transport.Frame{Kind: transport.FrameError, Src: h.Proc, Gen: tGen, Err: err.Error()})
		return err
	}
	if rejoining {
		// Joined mid-run: the initial population load is placeholder
		// state; wait for the coordinator's Restore before ticking.
		if err := awaitAndApplyRestore(eng, tcp, h); err != nil {
			return err
		}
	}

	for {
		err := eng.RunTicks(h.Ticks - int(eng.Tick()))
		switch {
		case err == nil:
			if err := tcp.Control(&transport.Frame{Kind: transport.FrameFinal, Final: &transport.FinalReport{
				Proc:   h.Proc,
				Ticks:  eng.Tick(),
				Values: eng.Runtime().AllValues(),
				Net:    tcp.Metrics().Totals(),
			}}); err != nil {
				return err
			}
			// Park until the coordinator closes the run — or a late
			// failure elsewhere rewinds this worker back into the loop.
			r, err := tcp.AwaitRestore()
			if err != nil {
				return nil // connection closed: run complete
			}
			if err := applyRestore(eng, tcp, h, r); err != nil {
				return err
			}
		case errors.Is(err, errDraining):
			// Graceful drain: exit with the connection simply closed, no
			// FrameError — an application error aborts the whole run
			// deterministically, while a bare close reads as a crash the
			// coordinator recovers from on the surviving fleet.
			return nil
		case errors.Is(err, transport.ErrRestore):
			if err := awaitAndApplyRestore(eng, tcp, h); err != nil {
				return err
			}
		default:
			fc.Send(&transport.Frame{Kind: transport.FrameError, Src: h.Proc, Err: err.Error()})
			return err
		}
	}
}

// servePeer attaches an incoming peer-link connection to the session it
// addresses. The dialing peer learned this daemon's address from the
// coordinator's roster, so the session normally exists — but peers dial
// as soon as their own handshakes complete, so a short wait absorbs the
// race with this daemon's handshake for the same run. On success the
// session transport owns the connection and reads it until it dies.
func servePeer(fc *transport.Conn, ph *transport.PeerHello, so ServeOptions) error {
	reject := func(err error) error {
		_ = fc.Send(&transport.Frame{Kind: transport.FrameAck, Err: err.Error()})
		_ = fc.Close()
		return fmt.Errorf("peer link: %w", err)
	}
	tcp, err := so.sessions.await(sessionKey(ph.RunID, ph.To), peerAwaitTimeout)
	if err != nil {
		return reject(err)
	}
	return tcp.AcceptPeer(fc, ph)
}

// watchCoordinator is the worker-side liveness watchdog: it closes the
// session connection once the coordinator has been silent past the
// timeout, unwinding whatever the session is blocked on. Heartbeat pings
// count as traffic, so with the coordinator defaults only a dead or
// frozen coordinator ever trips it.
func watchCoordinator(tcp *transport.TCP, fc *transport.Conn, timeout time.Duration, stop <-chan struct{}) {
	poll := timeout / 4
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			if now.Sub(tcp.LastRecv()) > timeout {
				_ = fc.Close()
				return
			}
		}
	}
}

// awaitAndApplyRestore blocks for the coordinator's Restore, rewinds the
// engine to the checkpoint it carries, and re-fences the transport onto
// the new generation.
func awaitAndApplyRestore(eng *engine.Distributed, tcp *transport.TCP, h *transport.Hello) error {
	r, err := tcp.AwaitRestore()
	if err != nil {
		return err
	}
	return applyRestore(eng, tcp, h, r)
}

// applyRestore checks a Restore the way checkHello checks a Hello — the
// placement must cover every partition and name only processes the Restore
// knows of, and the engine refuses state for a partition the placement
// does not give this process — so a malformed one changes nothing. Then it
// rewinds the engine to the checkpoint the Restore carries, which also
// re-baselines its checkpoint producer, and re-fences the transport onto
// the new generation.
func applyRestore(eng *engine.Distributed, tcp *transport.TCP, h *transport.Hello, r *transport.Restore) error {
	if len(r.Assign) != h.Partitions {
		return fmt.Errorf("distrib: restore assignment covers %d partitions, want %d", len(r.Assign), h.Partitions)
	}
	for p, pr := range r.Assign {
		if pr < 0 || pr >= len(r.Live) {
			return fmt.Errorf("distrib: restore assigns partition %d to unknown process %d of %d", p, pr, len(r.Live))
		}
	}
	ck := &engine.Checkpoint{Tick: r.Tick, Seq: r.CkptSeq, Cuts: r.Cuts, Parts: r.Parts}
	if err := eng.RestoreCheckpoint(ck, ownedParts(r.Assign, h.Proc)); err != nil {
		return err
	}
	tcp.Reset(r)
	return nil
}

// workerBarrier is the epoch-boundary round-trip: statistics up, directive
// down, directive applied.
func workerBarrier(eng *engine.Distributed, tcp *transport.TCP, h *transport.Hello, tick uint64, drain <-chan struct{}) error {
	stats := &transport.EpochStats{Proc: h.Proc, Tick: tick, Parts: eng.EpochStats(h.LoadBalance)}
	if err := tcp.Control(&transport.Frame{Kind: transport.FrameStats, Stats: stats}); err != nil {
		return err
	}
	// Pipeline the next tick's index build behind the coordinator
	// round-trip: the core builds run on a goroutine while this worker
	// waits for the directive (and ships its checkpoint), and are joined
	// before the barrier returns — on every path, so neither a tick nor a
	// Restore ever meets a build in flight.
	join := eng.StartBarrierPrebuild()
	defer join()
	d, err := tcp.AwaitDirective()
	if err != nil {
		return err
	}
	if d.Tick != tick {
		return fmt.Errorf("distrib: directive for tick %d at barrier %d", d.Tick, tick)
	}
	err = eng.ApplyDirective(d, func(pieces []transport.PartState) error {
		ck := &transport.CheckpointMsg{Proc: h.Proc, Tick: tick, Parts: pieces}
		return tcp.Control(&transport.Frame{Kind: transport.FrameCheckpoint, Ckpt: ck})
	})
	if err != nil {
		return err
	}
	if draining(drain) {
		// The round is complete — the coordinator holds this barrier's
		// checkpoint if it ordered one — so this is the graceful exit
		// point: abandon the run here rather than mid-epoch.
		return errDraining
	}
	return nil
}

// checkHello validates a coordinator's handshake against this binary.
func checkHello(h *transport.Hello) (scenario.Spec, error) {
	var none scenario.Spec
	if h.Proto != transport.ProtoVersion {
		return none, &transport.VersionError{Got: h.Proto, Want: transport.ProtoVersion}
	}
	if h.NumProcs < 1 || h.Proc < 0 || h.Proc >= h.NumProcs {
		return none, fmt.Errorf("bad process index %d of %d", h.Proc, h.NumProcs)
	}
	if h.Partitions < 1 {
		return none, fmt.Errorf("no partitions")
	}
	if err := checkSize(h.Agents, h.Partitions); err != nil {
		return none, err
	}
	if len(h.Assign) != h.Partitions {
		return none, fmt.Errorf("assignment covers %d partitions, want %d", len(h.Assign), h.Partitions)
	}
	for p, pr := range h.Assign {
		if pr < 0 || pr >= h.NumProcs {
			return none, fmt.Errorf("partition %d assigned to unknown process %d", p, pr)
		}
	}
	if h.Gen < 1 {
		return none, fmt.Errorf("bad generation %d", h.Gen)
	}
	if h.Ticks < 0 {
		return none, fmt.Errorf("negative tick count")
	}
	if h.EpochTicks < 0 {
		return none, fmt.Errorf("negative epoch ticks %d", h.EpochTicks)
	}
	if err := h.Index.Check(); err != nil {
		return none, err
	}
	sp, ok := scenario.Lookup(h.Scenario)
	if !ok {
		return none, scenario.ErrUnknown(h.Scenario)
	}
	return sp, nil
}
