package transport

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/bigreddata/brace/internal/cluster"
)

// peerDialTimeout bounds dialing + handshaking a peer worker. A peer that
// cannot be reached in this budget is marked down for the generation and
// its traffic falls back to the coordinator relay — slower, never wrong.
const peerDialTimeout = 5 * time.Second

// TCP is the Transport a worker process runs the mapreduce runtime on in a
// distributed (multi-process) BRACE cluster. The process computes the
// partitions the coordinator assigned to it; a send between two of its own
// partitions stays in memory (collocation), a send to any other partition
// travels as a Data frame addressed to the owning process over a direct
// peer link: the processes form a mesh, dialed lazily from the roster the
// handshake carries. The coordinator relay is the fallback for a link that
// is down — unreachable, failed mid-send, or cut by fault injection. The
// assignment and the roster are coordinator-owned state: they arrive in the
// handshake and can change mid-run through a Restore.
//
// Phase completeness is counted, not ordered: every FlushPhase sends each
// live peer an end-of-phase marker declaring how many Data frames this
// process addressed to it during the phase, and AwaitPhase completes when
// every live peer's marker has arrived *and* the declared number of unique
// Data frames has been received from it. Counting makes the barrier
// path-independent: a phase's frames may arrive over the direct peer link,
// over the coordinator relay, or both (after a mid-phase link failure the
// sender re-sends via the relay), in any interleaving. Per-(src→dst)
// sequence numbers deduplicate the maybe-delivered frame a failed link
// leaves behind, so re-sending is at-most-once on arrival.
//
// Every data-plane frame is stamped with the run's protocol generation.
// After a failure the coordinator bumps the generation and restores
// everyone from the last checkpoint; frames from older generations still
// in flight are dropped, and frames from a generation this process has not
// reached yet (a peer that restored first and raced ahead) are buffered
// and replayed by Reset. Peer links are per-generation too: a link dialed
// for generation g is torn down by the first send of generation g+1, so a
// dead epoch's in-flight peer traffic fences exactly like relayed traffic.
type TCP struct {
	proc  int
	parts int
	fc    *Conn

	metrics *cluster.Metrics

	mu        sync.Mutex
	cond      *sync.Cond
	procs     int
	gen       int
	assign    []int
	live      []bool
	inbox     [][]phasedMsg
	drained   [][]cluster.Message // per partition, what its last Drain returned
	phase     uint64
	done      uint64                  // the last phase AwaitPhase completed
	sent      []uint32                // per-destination-process Data frames this phase
	seqTo     []uint64                // per-destination-process Data sequence (this gen)
	dedup     []recvSeq               // per-source-process receive dedup (this gen)
	tallies   [phaseWindow]phaseTally // barrier counts of the phases in flight
	outMarks  []mark                  // FlushPhase's markers to send, reused
	future    []*Frame                // data-plane frames from a generation ahead
	directive *Directive              // pending epoch directive (slot of one)
	restore   *Restore                // pending restore; wins over everything
	readErr   error                   // terminal reader state; sticky
	stalled   bool                    // fault injection: process frozen (Stall)
	lastRecv  time.Time               // time of the last frame from the coordinator
	// clock mirrors (gen, phase) for the decoders of the connections
	// that feed this transport, which reuse replica memory by it.
	clock phaseClock

	runID  string
	peers  []string // data-plane addresses by process ("" = unreachable)
	peerIn map[*Conn]bool

	lmu   sync.Mutex
	links []*peerLink
}

// peerLink is the outgoing half of one directed worker↔worker connection:
// this process's frames to one destination. Dialed lazily by the first
// send of a generation; a failure marks it down for that generation and
// the sender falls back to the coordinator relay.
type peerLink struct {
	mu      sync.Mutex
	conn    *Conn
	gen     int
	down    bool
	stalled bool // fault injection: writes "succeed" but report failure
}

// recvSeq deduplicates one source's Data frames: next is the watermark
// (lowest unseen sequence number) and pending holds out-of-order arrivals
// above it, compacted as the watermark advances.
type recvSeq struct {
	next    uint64
	pending map[uint64]bool
}

// phaseWindow is how many phases' barrier counts a TCP transport keeps.
// A peer sends phase k+1 only after its AwaitPhase(k) has seen this
// process's marker k, which this process sends at FlushPhase(k). So once
// this process has completed phase done, and perhaps flushed done+1,
// frames of phases done+1 and done+2 can arrive, and no later one.
const phaseWindow = 2

// phaseTally is one phase's barrier evidence by source process: whether
// its end-of-phase marker arrived, the Data frames the marker declared,
// and the unique Data frames received.
type phaseTally struct {
	phase  uint64
	marked []bool
	count  []uint32
	recvd  []uint32
}

// mark is one end-of-phase marker FlushPhase sends: its destination
// process and the Data frames this process addressed to it.
type mark struct {
	dst   int
	count uint32
}

// phasedMsg tags an inbox entry with the phase it was sent in. A fast peer
// may race ahead: once its AwaitPhase(k) returns (it has this process's
// marker k) it starts sending phase-k+1 data, which can arrive before this
// process has drained phase k. Phase tags keep such early arrivals queued
// until their own drain.
type phasedMsg struct {
	phase uint64
	m     cluster.Message
}

var _ Transport = (*TCP)(nil)

// NewTCP wraps an already-handshaken coordinator connection as the
// transport for the worker process h describes: process h.Proc of
// h.NumProcs, computing the partitions h.Assign maps to it out of
// h.Partitions total, with h.Peers as the data-plane roster (indexed by
// process; "" marks a peer that is always reached through the relay) and
// h.RunID scoping its peer handshakes to its run on daemons serving many
// sessions. gen is the generation the process joins at (1 for a fresh run;
// a re-admitted worker passes Hello.Gen-1 so that the new generation's
// traffic buffers until its Restore applies). It starts the connection's
// reader goroutine, so the caller must not Recv on fc afterwards.
func NewTCP(fc *Conn, h *Hello, gen int) *TCP {
	if len(h.Assign) != h.Partitions {
		panic(fmt.Sprintf("transport: assignment covers %d partitions, want %d", len(h.Assign), h.Partitions))
	}
	procs, parts := h.NumProcs, h.Partitions
	live := make([]bool, procs)
	for i := range live {
		live[i] = true
	}
	t := &TCP{
		proc:     h.Proc,
		procs:    procs,
		parts:    parts,
		fc:       fc,
		metrics:  cluster.NewMetrics(parts),
		gen:      gen,
		assign:   append([]int(nil), h.Assign...),
		live:     live,
		inbox:    make([][]phasedMsg, parts),
		drained:  make([][]cluster.Message, parts),
		sent:     make([]uint32, procs),
		seqTo:    make([]uint64, procs),
		dedup:    newDedup(procs),
		runID:    h.RunID,
		peers:    append([]string(nil), h.Peers...),
		peerIn:   make(map[*Conn]bool),
		links:    make([]*peerLink, procs),
		lastRecv: time.Now(),
	}
	t.cond = sync.NewCond(&t.mu)
	t.resetTallies()
	t.clock.set(gen, 0)
	fc.dec.clock = &t.clock
	go t.readLoop()
	return t
}

func newDedup(procs int) []recvSeq {
	d := make([]recvSeq, procs)
	for i := range d {
		d[i].next = 1
	}
	return d
}

// readLoop reads the coordinator connection until it dies. Data and
// EndPhase frames decode into the connection's reused Frame (Conn.next),
// which ingest copies if it has to keep one.
func (t *TCP) readLoop() {
	for {
		f, _, err := t.fc.next()
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("transport: coordinator closed connection")
			}
			t.failConn(err)
			return
		}
		t.mu.Lock()
		t.lastRecv = time.Now()
		if t.stalled {
			// A stalled process neither reacts to frames nor answers
			// heartbeats; the socket keeps draining (the kernel would)
			// but nothing reaches the engine. The coordinator must
			// detect the silence and force-drop this worker.
			t.mu.Unlock()
			continue
		}
		t.mu.Unlock()
		switch f.Kind {
		case FrameData, FrameEndPhase, FrameDirective:
			t.ingest(f)
		case FramePing:
			// Answered from the reader, not the engine: a Pong proves the
			// *process* is alive even mid-phase. The epoch-round deadline,
			// not the heartbeat, covers a live process whose engine hangs.
			if err := t.fc.Send(&Frame{Kind: FramePong, Src: t.proc, Gen: f.Gen}); err != nil {
				t.failConn(err)
				return
			}
		case FrameRestore:
			t.mu.Lock()
			if f.Rest != nil && f.Rest.Gen > t.gen {
				t.restore = f.Rest
				t.cond.Broadcast()
			}
			t.mu.Unlock()
		case FrameError:
			t.failConn(fmt.Errorf("transport: peer error: %s", f.Err))
			return
		default:
			t.failConn(&ProtocolError{Kind: f.Kind, Where: "coordinator-link reader"})
			return
		}
	}
}

// ingest generation-fences one data-plane frame, whichever path delivered
// it: current generation applies, a future one (a peer that restored first
// and raced ahead) buffers for Reset to replay, a stale one is dropped.
// It keeps no pointer to f, which a reader loop reuses: a buffered frame
// is a copy.
func (t *TCP) ingest(f *Frame) {
	t.mu.Lock()
	switch {
	case f.Gen == t.gen:
		t.apply(f)
	case f.Gen > t.gen:
		kept := *f
		t.future = append(t.future, &kept)
	}
	t.mu.Unlock()
}

// Stall freezes the transport's engine-facing surface, simulating a
// SIGSTOPped or livelocked worker process without killing it: subsequent
// Send/FlushPhase/Control/Await* calls block until the connection dies, no
// heartbeat Pongs are answered, and incoming frames are discarded. Unlike
// a closed socket, the coordinator gets no error to react to —
// only its own liveness machinery can notice. The stall ends when the
// coordinator closes the connection (force-drop), which unwinds every
// blocked call with the read error so the daemon can accept a rejoin.
func (t *TCP) Stall() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stalled = true
	t.cond.Broadcast()
}

// LastRecv reports when the coordinator last sent anything — the worker
// side's liveness evidence (with heartbeats on, a healthy coordinator is
// never silent for long).
func (t *TCP) LastRecv() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastRecv
}

// awaitUnstallLocked parks the calling engine operation while the
// transport is stalled. Caller holds t.mu; returns the terminal error
// once the connection dies.
func (t *TCP) awaitUnstallLocked() error {
	for t.stalled && t.readErr == nil {
		t.cond.Wait()
	}
	if t.readErr != nil {
		return t.readErr
	}
	return nil
}

// apply files one current-generation frame. Caller holds t.mu.
func (t *TCP) apply(f *Frame) {
	switch f.Kind {
	case FrameData:
		// Sequence-deduplicate before anything else: a frame re-sent over
		// the relay after a peer-link failure may already have arrived.
		if f.Src >= 0 && f.Src < len(t.dedup) && f.Seq > 0 {
			if !t.dedup[f.Src].accept(f.Seq) {
				return
			}
			// Count the unique arrival toward its phase's declared total.
			if pt := t.tally(f); pt != nil {
				pt.recvd[f.Src]++
			}
		}
		m := f.Msg
		if m.To >= 0 && int(m.To) < len(t.inbox) {
			t.inbox[m.To] = append(t.inbox[m.To], phasedMsg{phase: f.Phase, m: m})
		}
		t.cond.Broadcast()
	case FrameEndPhase:
		// Assignment, not increment: a marker that traveled both paths
		// (direct and relay re-send) must land exactly once.
		if pt := t.tally(f); pt != nil && f.Src >= 0 && f.Src < len(pt.marked) {
			pt.marked[f.Src], pt.count[f.Src] = true, f.Count
		}
		t.cond.Broadcast()
	case FrameDirective:
		t.directive = f.Dir
		t.cond.Broadcast()
	default:
		// Unreachable while the reader loops filter what reaches ingest;
		// a new frame kind routed here must kill the session loudly, not
		// vanish. Caller holds t.mu, so fail inline rather than through
		// failConn.
		if t.readErr == nil {
			t.readErr = &ProtocolError{Kind: f.Kind, Where: "TCP.apply"}
		}
		t.cond.Broadcast()
	}
}

// accept reports whether seq is new, advancing the watermark and
// compacting the pending set.
func (d *recvSeq) accept(seq uint64) bool {
	if seq < d.next || d.pending[seq] {
		return false
	}
	if seq == d.next {
		d.next++
		for d.pending[d.next] {
			delete(d.pending, d.next)
			d.next++
		}
		return true
	}
	if d.pending == nil {
		d.pending = make(map[uint64]bool)
	}
	d.pending[seq] = true
	return true
}

// tally returns the barrier counts of f's phase, recycling the table of a
// completed phase, or nil for a phase no barrier of this session will
// wait on. One at or before the last completed phase is a marker that
// came round both paths after the barrier it closed. One beyond
// phaseWindow reaches only a session that joined at the generation before
// its Restore (NewTCP): the previous session's frames still in flight,
// which that Restore's Reset discards. Caller holds t.mu.
func (t *TCP) tally(f *Frame) *phaseTally {
	if f.Phase <= t.done || f.Phase > t.done+phaseWindow {
		return nil
	}
	pt := &t.tallies[f.Phase%phaseWindow]
	if pt.phase != f.Phase {
		pt.phase = f.Phase
		clear(pt.marked)
		clear(pt.count)
		clear(pt.recvd)
	}
	return pt
}

// resetTallies sizes the phase tables for t.procs processes, empties
// them and starts the generation's phases over (no phase completed).
// Caller holds t.mu or owns t.
func (t *TCP) resetTallies() {
	t.done = 0
	for i := range t.tallies {
		t.tallies[i] = phaseTally{
			marked: make([]bool, t.procs),
			count:  make([]uint32, t.procs),
			recvd:  make([]uint32, t.procs),
		}
	}
}

func (t *TCP) failConn(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.readErr == nil {
		t.readErr = err
	}
	t.cond.Broadcast()
}

// N returns the total partition count.
func (t *TCP) N() int { return t.parts }

// Proc returns this process's index.
func (t *TCP) Proc() int { return t.proc }

// liveProcs counts processes still in the run. Caller holds t.mu.
func (t *TCP) liveProcs() int {
	n := 0
	for _, l := range t.live {
		if l {
			n++
		}
	}
	return n
}

// Send enqueues locally when the destination partition is assigned to this
// process and ships an addressed Data frame to the owning process
// otherwise.
func (t *TCP) Send(m cluster.Message) error {
	if m.To < 0 || int(m.To) >= t.parts {
		return fmt.Errorf("transport: send to unknown node %d", m.To)
	}
	t.mu.Lock()
	if t.stalled {
		err := t.awaitUnstallLocked()
		t.mu.Unlock()
		return err
	}
	if t.restore != nil {
		t.mu.Unlock()
		return ErrRestore
	}
	if err := t.readErr; err != nil {
		t.mu.Unlock()
		return err
	}
	dst := t.assign[m.To]
	local := dst == t.proc
	// Sends happen inside the phase that the *next* FlushPhase ends.
	phase := t.phase + 1
	gen := t.gen
	// Collocation: traffic between partitions of the same process never
	// touches the wire and is metered as local.
	t.metrics.RecordSend(m.From, m.To, m.Bytes, local)
	if local {
		t.inbox[m.To] = append(t.inbox[m.To], phasedMsg{phase: phase, m: m})
		t.mu.Unlock()
		return nil
	}
	t.sent[dst]++
	t.seqTo[dst]++
	f := &Frame{Kind: FrameData, Src: t.proc, Gen: gen, Phase: phase, Dst: dst, Seq: t.seqTo[dst], Msg: m}
	t.mu.Unlock()
	return t.sendFrame(dst, f)
}

// sendFrame routes one addressed data-plane frame: over the direct peer
// link when the peer is reachable, through the coordinator relay
// otherwise. A mid-send link failure falls back to the relay with the same
// frame — the receiver's sequence dedup absorbs the maybe-delivered
// original.
func (t *TCP) sendFrame(dst int, f *Frame) error {
	if c := t.peerConn(dst, f.Gen); c != nil {
		l := t.linkFor(dst)
		l.mu.Lock()
		stalled := l.stalled
		l.mu.Unlock()
		if stalled {
			// Fault injection: the write reaches the socket (the frame
			// may be delivered) but the sender sees a failure, exactly
			// like a write deadline expiring on a congested link.
			_ = c.Send(f)
			t.downPeer(dst, f.Gen, c)
		} else if err := c.Send(f); err == nil {
			return nil
		} else {
			t.downPeer(dst, f.Gen, c)
		}
	}
	return t.fc.Send(f)
}

// linkFor returns the (always non-nil) link record for dst, growing the
// table if a Restore admitted new processes.
func (t *TCP) linkFor(dst int) *peerLink {
	t.lmu.Lock()
	defer t.lmu.Unlock()
	for len(t.links) <= dst {
		t.links = append(t.links, nil)
	}
	if t.links[dst] == nil {
		t.links[dst] = &peerLink{}
	}
	return t.links[dst]
}

// peerConn returns an established peer connection to dst for generation
// gen, dialing lazily. nil means the peer is unreachable this generation
// (or was cut by fault injection): use the relay.
func (t *TCP) peerConn(dst, gen int) *Conn {
	l := t.linkFor(dst)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen != gen {
		// A link of another generation is stale no matter its state: close
		// it so the dead epoch's in-flight frames fence at the receiver,
		// and start this generation fresh.
		if l.conn != nil {
			_ = l.conn.Close()
			l.conn = nil
		}
		l.down = false
		l.stalled = false
		l.gen = gen
	}
	if l.down {
		return nil
	}
	if l.conn != nil {
		return l.conn
	}
	t.mu.Lock()
	var addr string
	if dst < len(t.peers) {
		addr = t.peers[dst]
	}
	runID, from := t.runID, t.proc
	t.mu.Unlock()
	if addr == "" {
		l.down = true
		return nil
	}
	nc, err := net.DialTimeout("tcp", addr, peerDialTimeout)
	if err != nil {
		l.down = true
		return nil
	}
	_ = nc.SetDeadline(time.Now().Add(peerDialTimeout))
	pc := NewConn(nc)
	err = pc.Send(&Frame{Kind: FramePeerHello, Peer: &PeerHello{RunID: runID, From: from, To: dst, Gen: gen}})
	if err == nil {
		var ack *Frame
		if ack, err = pc.Recv(); err == nil && (ack.Kind != FrameAck || ack.Err != "") {
			err = fmt.Errorf("transport: peer %d rejected link: %s", dst, ack.Err)
		}
	}
	if err != nil {
		_ = pc.Close()
		l.down = true
		return nil
	}
	_ = nc.SetDeadline(time.Time{})
	l.conn = pc
	return pc
}

// downPeer marks dst's link down for gen and closes the failed connection;
// subsequent sends of the generation use the relay.
func (t *TCP) downPeer(dst, gen int, c *Conn) {
	l := t.linkFor(dst)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == c {
		l.conn = nil
	}
	if l.gen == gen {
		l.down = true
	}
	_ = c.Close()
}

// CutPeer severs this process's outgoing link to dst for the current
// generation: the connection closes (frames already written are delivered)
// and subsequent traffic to dst falls back to the coordinator relay.
// Fault injection for the peer-link chaos suite.
func (t *TCP) CutPeer(dst int) {
	t.mu.Lock()
	gen := t.gen
	t.mu.Unlock()
	l := t.linkFor(dst)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		_ = l.conn.Close()
		l.conn = nil
	}
	l.gen = gen
	l.down = true
}

// StallPeer makes this process's outgoing link to dst fail like a
// stopped-draining socket: the next send's bytes reach the wire but the
// sender observes an error, marks the link down, and re-sends through the
// relay — exercising the receiver's duplicate suppression. Fault injection
// for the peer-link chaos suite.
func (t *TCP) StallPeer(dst int) {
	t.mu.Lock()
	gen := t.gen
	t.mu.Unlock()
	l := t.linkFor(dst)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gen = gen
	l.stalled = true
}

// AcceptPeer attaches an incoming peer connection (its PeerHello already
// read by the daemon) to this transport: the link's frames are read by a
// dedicated goroutine and generation-fenced exactly like relayed ones.
// The Ack completing the peer handshake is sent here.
func (t *TCP) AcceptPeer(fc *Conn, ph *PeerHello) error {
	if ph.To != t.proc {
		err := fmt.Errorf("transport: peer link for process %d reached process %d", ph.To, t.proc)
		_ = fc.Send(&Frame{Kind: FrameAck, Err: err.Error()})
		_ = fc.Close()
		return err
	}
	if err := fc.Send(&Frame{Kind: FrameAck}); err != nil {
		_ = fc.Close()
		return err
	}
	t.mu.Lock()
	t.peerIn[fc] = true
	t.mu.Unlock()
	fc.dec.clock = &t.clock
	go t.readPeer(fc)
	return nil
}

// readPeer drains one incoming peer link until it dies. Only data-plane
// frames are legal on a peer link; they fence by generation like every
// other path. Errors are not terminal for the transport — the sender falls
// back to the relay, and the barrier accounting stays exact either way.
func (t *TCP) readPeer(fc *Conn) {
	defer func() {
		t.mu.Lock()
		delete(t.peerIn, fc)
		t.mu.Unlock()
		_ = fc.Close()
	}()
	for {
		f, _, err := fc.next()
		if err != nil {
			return
		}
		t.mu.Lock()
		stalled := t.stalled
		t.mu.Unlock()
		if stalled {
			continue // a frozen process ignores peer traffic too
		}
		switch f.Kind {
		case FrameData, FrameEndPhase:
			t.ingest(f)
		default:
			// Only the data plane flows worker↔worker; anything else on a
			// peer link is a protocol violation worth failing the session
			// over, not a frame to shrug off.
			t.failConn(&ProtocolError{Kind: f.Kind, Where: "peer-link reader"})
			return
		}
	}
}

// PeerLinks counts this transport's open peer connections, incoming and
// outgoing — the load figure the daemon reports to the registry.
func (t *TCP) PeerLinks() int {
	t.mu.Lock()
	n := len(t.peerIn)
	t.mu.Unlock()
	t.lmu.Lock()
	defer t.lmu.Unlock()
	for _, l := range t.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		if l.conn != nil {
			n++
		}
		l.mu.Unlock()
	}
	return n
}

// Drain removes and returns the messages queued for partition n that
// belong to the just-ended phase (or earlier). Arrivals a racing-ahead
// peer already sent for the next phase stay queued for their own drain,
// compacted to the front of the inbox. The slice is valid until n's next
// Drain, which reuses its array; so does the inbox, so a steady run
// allocates neither.
func (t *TCP) Drain(n cluster.NodeID) []cluster.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.drained[n]
	clear(out) // drop the payloads the caller was done with
	out = out[:0]
	in := t.inbox[n]
	keep := in[:0]
	for _, pm := range in {
		if pm.phase <= t.phase {
			out = append(out, pm.m)
		} else {
			keep = append(keep, pm)
		}
	}
	clear(in[len(keep):])
	t.inbox[n], t.drained[n] = keep, out
	return out
}

// Metrics returns this process's traffic counters.
func (t *TCP) Metrics() *cluster.Metrics { return t.metrics }

// FlushPhase advances the local phase counter and sends every live peer an
// end-of-phase marker declaring this process's Data-frame count to it,
// without waiting. An extra Dst=-1 marker goes to the coordinator so its
// liveness machinery observes barrier progress that peer links keep from it.
func (t *TCP) FlushPhase() error {
	t.mu.Lock()
	if t.stalled {
		err := t.awaitUnstallLocked()
		t.mu.Unlock()
		return err
	}
	if t.restore != nil {
		t.mu.Unlock()
		return ErrRestore
	}
	if err := t.readErr; err != nil {
		t.mu.Unlock()
		return err
	}
	t.phase++
	phase := t.phase
	gen := t.gen
	t.clock.set(gen, phase)
	// t.outMarks is FlushPhase's own: the runtime flushes from one
	// goroutine at a time, and nothing else touches it.
	outs := t.outMarks[:0]
	for p := 0; p < t.procs && p < len(t.live); p++ {
		if p != t.proc && t.live[p] {
			outs = append(outs, mark{dst: p, count: t.sent[p]})
		}
	}
	t.outMarks = outs
	clear(t.sent)
	t.mu.Unlock()
	for _, o := range outs {
		f := &Frame{Kind: FrameEndPhase, Src: t.proc, Gen: gen, Phase: phase, Dst: o.dst, Count: o.count}
		if err := t.sendFrame(o.dst, f); err != nil {
			return err
		}
	}
	if len(outs) > 0 {
		// Control-plane progress note; the hub records it and relays
		// nothing.
		if err := t.fc.Send(&Frame{Kind: FrameEndPhase, Src: t.proc, Gen: gen, Phase: phase, Dst: -1}); err != nil {
			return err
		}
	}
	return nil
}

// AwaitPhase blocks until the phase the preceding FlushPhase ended is
// complete: every live peer's marker has arrived and its declared number
// of unique Data frames is in the local inboxes — whichever mix of peer
// links and coordinator relay delivered them. It returns ErrRestore if the
// coordinator orders a restore while waiting.
func (t *TCP) AwaitPhase() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	phase := t.phase
	for !t.phaseDoneLocked(phase) && t.readErr == nil && t.restore == nil && !t.stalled {
		t.cond.Wait()
	}
	if t.stalled {
		return t.awaitUnstallLocked()
	}
	switch {
	case t.restore != nil:
		return ErrRestore
	case t.readErr != nil:
		return t.readErr
	}
	t.done = phase
	return nil
}

// phaseDoneLocked reports whether every live peer's marker for phase has
// arrived with its declared Data count satisfied. Caller holds t.mu.
func (t *TCP) phaseDoneLocked(phase uint64) bool {
	pt := &t.tallies[phase%phaseWindow]
	for p := 0; p < len(t.live); p++ {
		if p == t.proc || !t.live[p] {
			continue
		}
		if pt.phase != phase || !pt.marked[p] || pt.recvd[p] < pt.count[p] {
			return false
		}
	}
	return true
}

// Control sends a control-plane frame (stats, checkpoint, final report),
// stamped with this process's index and current generation. Control
// frames always ride the coordinator connection.
func (t *TCP) Control(f *Frame) error {
	t.mu.Lock()
	if t.stalled {
		err := t.awaitUnstallLocked()
		t.mu.Unlock()
		return err
	}
	f.Src = t.proc
	f.Gen = t.gen
	t.mu.Unlock()
	return t.fc.Send(f)
}

// AwaitDirective blocks until the coordinator answers the epoch barrier.
// It returns ErrRestore if a restore arrives first (a peer died at or
// around the barrier), or the terminal read error.
func (t *TCP) AwaitDirective() (*Directive, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.directive == nil && t.restore == nil && t.readErr == nil && !t.stalled {
		t.cond.Wait()
	}
	if t.stalled {
		return nil, t.awaitUnstallLocked()
	}
	switch {
	case t.restore != nil:
		return nil, ErrRestore
	case t.directive != nil:
		d := t.directive
		t.directive = nil
		return d, nil
	}
	return nil, t.readErr
}

// AwaitRestore blocks until a restore is pending (returning it without
// clearing it — Reset does that) or the connection reaches a terminal
// state. A worker that finished its ticks parks here: either the
// coordinator closes the connection (run complete) or a late failure
// rewinds it back into the tick loop.
func (t *TCP) AwaitRestore() (*Restore, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.restore == nil && t.readErr == nil && !t.stalled {
		t.cond.Wait()
	}
	if t.stalled {
		return nil, t.awaitUnstallLocked()
	}
	if t.restore != nil {
		return t.restore, nil
	}
	return nil, t.readErr
}

// Reset installs a restore: new generation, assignment, live set and peer
// roster; phase counters, markers, sequence state, inboxes and any
// stale directive are discarded, and buffered frames of the new generation
// (from peers that restored first) are replayed. The process table grows
// when the restore admits processes beyond the handshake's count (a worker
// that registered mid-run). Stale peer links tear down lazily: the first
// send of the new generation closes and re-dials them, and their leftover
// in-flight frames fence on Gen at the receiver. The engine state itself
// is restored by the caller.
func (t *TCP) Reset(r *Restore) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen = r.Gen
	t.assign = append([]int(nil), r.Assign...)
	t.live = append([]bool(nil), r.Live...)
	if n := len(r.Live); n > t.procs {
		t.procs = n
	}
	t.phase = 0
	t.clock.set(r.Gen, 0)
	t.sent = make([]uint32, t.procs)
	t.seqTo = make([]uint64, t.procs)
	t.dedup = newDedup(t.procs)
	t.resetTallies()
	t.peers = append([]string(nil), r.Peers...)
	for i, in := range t.inbox {
		clear(in)
		t.inbox[i] = in[:0]
	}
	t.directive = nil
	if t.restore != nil && t.restore.Gen <= r.Gen {
		t.restore = nil
	}
	var keep []*Frame
	for _, f := range t.future {
		switch {
		case f.Gen == r.Gen:
			t.apply(f)
		case f.Gen > r.Gen:
			keep = append(keep, f)
		}
	}
	t.future = keep
	t.cond.Broadcast()
}

// Close tears down the coordinator connection and every peer link; reader
// goroutines exit on the resulting read errors.
func (t *TCP) Close() error {
	err := t.fc.Close()
	t.lmu.Lock()
	links := append([]*peerLink(nil), t.links...)
	t.lmu.Unlock()
	for _, l := range links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		if l.conn != nil {
			_ = l.conn.Close()
			l.conn = nil
		}
		l.mu.Unlock()
	}
	t.mu.Lock()
	ins := make([]*Conn, 0, len(t.peerIn))
	for c := range t.peerIn { //bracevet:allow maporder teardown fan-out; closes are independent and order unobservable
		ins = append(ins, c)
	}
	t.mu.Unlock()
	for _, c := range ins {
		_ = c.Close()
	}
	return err
}
