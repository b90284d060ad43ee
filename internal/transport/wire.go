package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/bigreddata/brace/internal/cluster"
	"github.com/bigreddata/brace/internal/spatial"
)

// ProtoVersion guards against mismatched coordinator/worker binaries; the
// handshake rejects any other value with a VersionError, the one skew
// guard (there is no per-feature negotiation: every binary speaks its
// version's whole protocol). Version 10 is: coordinator-owned placement in
// the Hello and Stats/Directive/Checkpoint/Restore frames at epoch barriers;
// Ping/Pong heartbeats answered by the worker's transport reader;
// concurrent sessions per worker daemon, scoped by Hello.RunID;
// per-destination end-of-phase markers with declared frame counts and
// per-(src,dst) data sequence numbers; worker registration (FrameRegister)
// and direct worker↔worker sessions (FramePeerHello). Each process derives
// the cell grids and the initial strip cuts from the Hello's scenario and
// index, so neither crosses the wire.
// v7 took the balancer's cost out of PartState: PartStats.Cost counts
// probe rows since the previous barrier, checkpoints are taken at
// barriers, so the cost in a checkpoint or a Restore would always be 0.
// v8 dropped the Hello's partition-at-a-time switch: a worker ticks its
// partitions concurrently, always. v9 dropped Hello.Part: quantile strips
// are the one partitioning. v10 sends Hello.Index as a spatial.Kind number
// instead of its name. v11 replaces gob with this package's own frame
// codec (see Frame), so a v10 peer's frames do not even decode. v12 drops
// the payload's codec tag: envelope batches are the wire's one payload
// type. v13 ships every checkpoint piece as full state: Directive loses
// CkptSeq and CkptFull, PartState its Base and Delta, and Restore its
// CkptSeq.
const ProtoVersion = 13

// VersionError reports a handshake between binaries speaking different
// protocol versions.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("transport: protocol version %d, this end speaks %d", e.Got, e.Want)
}

// maxFrame bounds a single frame so a corrupt length prefix cannot make a
// reader allocate unbounded memory.
const maxFrame = 1 << 30

// Hello is the handshake the coordinator sends a worker daemon right after
// dialing it. It carries everything a worker needs to reconstruct its slice
// of the job locally — the scenario registry makes the *data* the only
// thing that must cross the wire afterwards.
type Hello struct {
	Proto int
	// RunID scopes this session to one run when a worker daemon serves
	// several concurrent coordinators (the bracesimd fleet): peer links
	// address a session by (RunID, process). The coordinator draws a
	// random one when its caller names none; a worker refuses an empty
	// one.
	RunID string
	// Proc is this worker process's index in [0, NumProcs).
	Proc     int
	NumProcs int
	// Partitions is the total mapreduce worker (= partition) count.
	Partitions int
	// Assign is the coordinator-owned placement: Assign[p] is the process
	// computing partition p. It must have Partitions entries. The
	// coordinator may change it mid-run through a Restore directive.
	Assign []int
	// Gen is the protocol generation the run is on. Fresh runs start at 1;
	// a Hello with Gen > 1 re-admits a worker into a run that already
	// recovered Gen-1 times — the worker must wait for its Restore frame
	// instead of ticking from zero.
	Gen int
	// LoadBalance tells workers to include agent positions in their epoch
	// statistics so the coordinator can run the 1-D balancer.
	LoadBalance bool
	// Scenario names a registry entry; Agents/Extent/Seed size it exactly
	// as on the coordinator, so every process derives the same initial
	// population and partitioning.
	Scenario   string
	Agents     int
	Extent     float64
	Seed       uint64
	Ticks      int
	EpochTicks int
	// Index travels as its number; the worker refuses one outside the
	// vocabulary with a *spatial.UnknownKindError.
	Index spatial.Kind
	// Peers are the worker daemons' data-plane addresses, indexed by
	// process: process i dials Peers[j] directly for its j-bound envelope
	// traffic, and falls back to the coordinator relay while that link is
	// down. It must have NumProcs entries.
	Peers []string
}

// PeerHello opens a direct worker↔worker data-plane session:
// the dialing process announces which run, direction and generation the
// link carries; the accepting daemon routes it to the matching session's
// transport or rejects it. One link is one direction — process i's frames
// to process j — so each side's reader has a single writer peer.
type PeerHello struct {
	RunID string
	From  int
	To    int
	Gen   int
}

// Registration announces (and then keeps updating) a worker daemon on the
// coordinator's registry socket: the address the daemon serves sessions
// on and its self-reported load. The daemon streams
// updated Registration frames on the same connection as sessions and peer
// links come and go.
type Registration struct {
	Addr      string
	Sessions  int
	PeerLinks int
}

// FinalReport is a worker's end-of-run message: its owned envelopes, how
// far it ran, and its traffic totals (senders meter, so summing across
// processes counts each delivery once).
type FinalReport struct {
	Proc   int
	Ticks  uint64
	Values []*Envelope
	Net    cluster.NodeMetrics
}

// PartStats is one partition's contribution to an epoch statistics frame.
type PartStats struct {
	Part int
	// Cost is the rows the partition's probes returned since the previous
	// barrier (engine.Distributed.PartitionCost), the balancer's per-agent
	// cost proxy.
	Cost int64
	// Xs are the x coordinates of the partition's owned agents; populated
	// only when the run load-balances (Hello.LoadBalance).
	Xs []float64
}

// EpochStats flows worker → coordinator at every epoch barrier: the
// statistics the master needs for load balancing, paired with the barrier
// tick so the coordinator can detect lockstep violations.
type EpochStats struct {
	Proc  int
	Tick  uint64
	Parts []PartStats
}

// Directive flows coordinator → worker in answer to a complete round of
// EpochStats: what the master decided at this barrier.
type Directive struct {
	// Tick echoes the barrier tick the directive answers.
	Tick uint64
	// NewCuts, when non-nil, are rebalanced strip boundaries the worker
	// must install before the next tick.
	NewCuts []float64
	// Checkpoint orders the worker to ship its partitions' full state to
	// the coordinator (a CheckpointMsg) before continuing.
	Checkpoint bool
}

// PartState is one partition's checkpointed state on the wire: its owned
// envelopes, complete. The master (engine.Master) refuses a piece that is
// not marked Full, in a Checkpoint frame and a Restore frame alike.
type PartState struct {
	Part int
	// Full marks Values as the complete partition state: its envelopes.
	Full   bool
	Values []*Envelope
}

// CheckpointMsg flows worker → coordinator when a Directive orders a
// checkpoint: the worker's partitions at the barrier tick. The coordinator
// holds the assembled pieces so a dead worker's state survives it.
type CheckpointMsg struct {
	Proc  int
	Tick  uint64
	Parts []PartState
}

// Restore flows coordinator → worker after a failure (or to a worker
// re-admitted mid-run): rewind to the checkpoint tick under a new
// generation, with a possibly changed partition assignment. Frames of
// older generations still in flight are fenced off by Gen.
type Restore struct {
	Gen  int
	Tick uint64
	// Cuts restore the checkpoint's strip partitioning.
	Cuts []float64
	// Assign is the new partition→process placement.
	Assign []int
	// Live flags which processes are still part of the run; the phase
	// barrier counts markers from live peers only.
	Live []bool
	// Parts carry the checkpoint state for the partitions this worker now
	// owns. Restore parts are always Full.
	Parts []PartState
	// Peers is the refreshed data-plane roster, one address per entry of
	// Live: recovery and mid-run admissions change who serves which
	// process index, so every Restore re-announces it.
	Peers []string
}

// FrameKind discriminates wire frames.
type FrameKind uint8

// Frame kinds. Hello/Ack only appear during the handshake; Data, EndPhase,
// Final and Error make up the data plane; Stats, Directive, Checkpoint and
// Restore are the coordinator's control plane. Ping flows coordinator →
// worker on the heartbeat interval and is answered with a Pong by the
// worker's transport reader — not its engine — so liveness tracks the
// process, not the tick loop (the epoch-round deadline covers the latter).
const (
	FrameHello FrameKind = iota + 1
	FrameAck
	FrameData
	FrameEndPhase
	FrameFinal
	FrameError
	FrameStats
	FrameDirective
	FrameCheckpoint
	FrameRestore
	FramePing
	FramePong
	// FramePeerHello opens a direct worker↔worker data-plane link;
	// answered with a FrameAck like the coordinator handshake.
	FramePeerHello
	// FrameRegister announces a worker daemon to the coordinator-side
	// registry and streams its load updates.
	FrameRegister
)

// String names a frame kind for diagnostics. The switch is exhaustive by
// construction; bracevet's framecase analyzer keeps it that way when new
// kinds are added.
func (k FrameKind) String() string {
	switch k {
	case FrameHello:
		return "Hello"
	case FrameAck:
		return "Ack"
	case FrameData:
		return "Data"
	case FrameEndPhase:
		return "EndPhase"
	case FrameFinal:
		return "Final"
	case FrameError:
		return "Error"
	case FrameStats:
		return "Stats"
	case FrameDirective:
		return "Directive"
	case FrameCheckpoint:
		return "Checkpoint"
	case FrameRestore:
		return "Restore"
	case FramePing:
		return "Ping"
	case FramePong:
		return "Pong"
	case FramePeerHello:
		return "PeerHello"
	case FrameRegister:
		return "Register"
	default:
		return fmt.Sprintf("FrameKind(%d)", uint8(k))
	}
}

// ProtocolError reports a frame kind arriving somewhere the wire protocol
// says it cannot — a version skew or a new kind some reader loop was
// never taught. Every FrameKind switch in the tree fails loudly with one
// of these (or routes the frame onward) rather than silently dropping it;
// bracevet's framecase analyzer enforces the pattern.
type ProtocolError struct {
	Kind  FrameKind
	Where string // which loop saw the frame
	// Reason, when set, says why the frame decoder refused a malformed
	// frame; Kind is then the kind its header claimed.
	Reason string
}

func (e *ProtocolError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("transport: protocol violation: malformed %v frame in %s: %s", e.Kind, e.Where, e.Reason)
	}
	return fmt.Sprintf("transport: protocol violation: unexpected %v frame in %s", e.Kind, e.Where)
}

// Frame is the unit of the wire protocol. On a Conn it travels as a
// 4-byte big-endian length, then a fixed header — Kind, Src, Gen, Phase,
// Dst, Count, Seq and Msg's From, To, Tag and Bytes — then a body that
// depends on Kind: Msg.Payload for Data, which must be a *[]*Envelope or a
// []*Envelope and decodes as a *[]*Envelope; Err for Ack and Error; the
// matching struct for the other kinds; nothing for EndPhase, Ping and
// Pong. Only the fields relevant to Kind travel.
type Frame struct {
	Kind  FrameKind
	Src   int    // sending worker process
	Gen   int    // protocol generation; receivers drop stale generations
	Phase uint64 // EndPhase sequence number
	// Dst addresses a frame to one destination process. A Data
	// frame's Dst names the process owning Msg.To so relays route without
	// consulting the assignment; an EndPhase marker's Dst names the peer
	// whose inbox it closes, with -1 meaning "progress note only" (the
	// control-plane copy to the coordinator).
	Dst int
	// Count, on an EndPhase marker, declares how many Data frames Src
	// addressed to Dst this phase; the receiver's barrier completes only
	// after that many unique frames arrived, whichever path they took.
	Count uint32
	// Seq orders Data frames per (Src → owning process) within a
	// generation, starting at 1; receivers deduplicate on it so a frame
	// resent over the relay after a peer-link failure applies only once.
	Seq   uint64
	Msg   cluster.Message
	Hello *Hello
	Final *FinalReport
	Stats *EpochStats
	Dir   *Directive
	Ckpt  *CheckpointMsg
	Rest  *Restore
	Peer  *PeerHello    // FramePeerHello
	Reg   *Registration // FrameRegister
	Err   string        // FrameAck (empty = ok) and FrameError
}

// frame writes f's header and body. Numbers are fixed-width little-endian
// (every int is 8 bytes), so each frame has exactly one encoding and the
// decoder can refuse anything else.
func (e *encoder) frame(f *Frame) {
	e.u8(uint8(f.Kind))
	e.int(f.Src)
	e.int(f.Gen)
	e.u64(f.Phase)
	e.int(f.Dst)
	e.u32(f.Count)
	e.u64(f.Seq)
	e.int(int(f.Msg.From))
	e.int(int(f.Msg.To))
	e.int(f.Msg.Tag)
	e.int(f.Msg.Bytes)
	switch f.Kind {
	case FrameData:
		batch, ok := f.Msg.Payload.([]*Envelope)
		if p, isPtr := f.Msg.Payload.(*[]*Envelope); isPtr && p != nil {
			batch, ok = *p, true
		}
		if !ok {
			e.fail(fmt.Errorf("transport: a Data frame carries *[]*transport.Envelope or []*transport.Envelope, not %T", f.Msg.Payload))
			return
		}
		e.envelopes(batch)
	case FrameEndPhase, FramePing, FramePong:
	case FrameAck, FrameError:
		e.str(f.Err)
	case FrameHello:
		if e.present(f.Hello != nil) {
			e.hello(f.Hello)
		}
	case FrameFinal:
		if e.present(f.Final != nil) {
			e.final(f.Final)
		}
	case FrameStats:
		if e.present(f.Stats != nil) {
			e.stats(f.Stats)
		}
	case FrameDirective:
		if e.present(f.Dir != nil) {
			e.directive(f.Dir)
		}
	case FrameCheckpoint:
		if e.present(f.Ckpt != nil) {
			e.int(f.Ckpt.Proc)
			e.u64(f.Ckpt.Tick)
			e.partStates(f.Ckpt.Parts)
		}
	case FrameRestore:
		if e.present(f.Rest != nil) {
			e.restore(f.Rest)
		}
	case FramePeerHello:
		if e.present(f.Peer != nil) {
			p := f.Peer
			e.str(p.RunID)
			e.int(p.From)
			e.int(p.To)
			e.int(p.Gen)
		}
	case FrameRegister:
		if e.present(f.Reg != nil) {
			r := f.Reg
			e.str(r.Addr)
			e.int(r.Sessions)
			e.int(r.PeerLinks)
		}
	default:
		e.fail(&ProtocolError{Kind: f.Kind, Where: "frame encoder"})
	}
}

// present writes a pointer body's presence byte and returns it.
func (e *encoder) present(ok bool) bool {
	e.bool(ok)
	return ok
}

func (e *encoder) hello(h *Hello) {
	e.int(h.Proto)
	e.str(h.RunID)
	e.int(h.Proc)
	e.int(h.NumProcs)
	e.int(h.Partitions)
	e.ints(h.Assign)
	e.int(h.Gen)
	e.bool(h.LoadBalance)
	e.str(h.Scenario)
	e.int(h.Agents)
	e.f64(h.Extent)
	e.u64(h.Seed)
	e.int(h.Ticks)
	e.int(h.EpochTicks)
	e.int(int(h.Index))
	e.strs(h.Peers)
}

func (e *encoder) final(r *FinalReport) {
	e.int(r.Proc)
	e.u64(r.Ticks)
	e.envelopes(r.Values)
	n := r.Net
	for _, v := range [...]int64{n.SentMsgs, n.SentBytes, n.RecvMsgs, n.RecvBytes, n.LocalMsgs, n.LocalBytes} {
		e.u64(uint64(v))
	}
}

func (e *encoder) stats(s *EpochStats) {
	e.int(s.Proc)
	e.u64(s.Tick)
	e.count(len(s.Parts))
	for _, p := range s.Parts {
		e.int(p.Part)
		e.u64(uint64(p.Cost))
		e.floats(p.Xs)
	}
}

func (e *encoder) directive(d *Directive) {
	e.u64(d.Tick)
	e.floats(d.NewCuts)
	e.bool(d.Checkpoint)
}

func (e *encoder) partStates(ps []PartState) {
	e.count(len(ps))
	for i := range ps {
		p := &ps[i]
		e.int(p.Part)
		e.bool(p.Full)
		e.envelopes(p.Values)
	}
}

func (e *encoder) restore(r *Restore) {
	e.int(r.Gen)
	e.u64(r.Tick)
	e.floats(r.Cuts)
	e.ints(r.Assign)
	e.count(len(r.Live))
	for _, l := range r.Live {
		e.bool(l)
	}
	e.partStates(r.Parts)
	e.strs(r.Peers)
}

// decodeFrame decodes one frame body. Anything but exactly one frame's
// encoding — a truncated field, a count the body cannot hold, an unknown
// kind, a non-canonical byte, trailing bytes — is a
// *ProtocolError.
//
// A Data or EndPhase frame decodes into reuse when it is not nil, which
// the caller must be done with; every other kind, and every kind when
// reuse is nil, decodes into a fresh Frame that the caller may keep.
func decodeFrame(d *decoder, body []byte, reuse *Frame) (*Frame, error) {
	d.b, d.off, d.err, d.kind = body, 0, nil, 0
	d.kind = FrameKind(d.u8())
	f := reuse
	if f == nil || (d.kind != FrameData && d.kind != FrameEndPhase) {
		f = new(Frame)
	} else {
		*f = Frame{}
	}
	f.Kind = d.kind
	f.Src = d.int()
	f.Gen = d.int()
	f.Phase = d.u64()
	f.Dst = d.int()
	f.Count = d.u32()
	f.Seq = d.u64()
	f.Msg.From = cluster.NodeID(d.int())
	f.Msg.To = cluster.NodeID(d.int())
	f.Msg.Tag = d.int()
	f.Msg.Bytes = d.int()
	switch f.Kind {
	case FrameData:
		f.Msg.Payload = d.batch(d.slotFor(f.Gen, f.Phase))
	case FrameEndPhase, FramePing, FramePong:
	case FrameAck, FrameError:
		f.Err = d.str()
	case FrameHello:
		if d.bool() {
			f.Hello = d.hello()
		}
	case FrameFinal:
		if d.bool() {
			f.Final = &FinalReport{Proc: d.int(), Ticks: d.u64(), Values: d.envelopes(nil)}
			n := &f.Final.Net
			for _, v := range [...]*int64{&n.SentMsgs, &n.SentBytes, &n.RecvMsgs, &n.RecvBytes, &n.LocalMsgs, &n.LocalBytes} {
				*v = int64(d.u64())
			}
		}
	case FrameStats:
		if d.bool() {
			f.Stats = d.stats()
		}
	case FrameDirective:
		if d.bool() {
			f.Dir = &Directive{Tick: d.u64(), NewCuts: d.floats(), Checkpoint: d.bool()}
		}
	case FrameCheckpoint:
		if d.bool() {
			f.Ckpt = &CheckpointMsg{Proc: d.int(), Tick: d.u64(), Parts: d.partStates()}
		}
	case FrameRestore:
		if d.bool() {
			f.Rest = d.restore()
		}
	case FramePeerHello:
		if d.bool() {
			f.Peer = &PeerHello{RunID: d.str(), From: d.int(), To: d.int(), Gen: d.int()}
		}
	case FrameRegister:
		if d.bool() {
			f.Reg = &Registration{Addr: d.str(), Sessions: d.int(), PeerLinks: d.int()}
		}
	default:
		d.fail("unknown kind")
	}
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return f, nil
}

func (d *decoder) hello() *Hello {
	return &Hello{
		Proto:       d.int(),
		RunID:       d.str(),
		Proc:        d.int(),
		NumProcs:    d.int(),
		Partitions:  d.int(),
		Assign:      d.ints(),
		Gen:         d.int(),
		LoadBalance: d.bool(),
		Scenario:    d.str(),
		Agents:      d.int(),
		Extent:      d.f64(),
		Seed:        d.u64(),
		Ticks:       d.int(),
		EpochTicks:  d.int(),
		Index:       spatial.Kind(d.int()),
		Peers:       d.strs(),
	}
}

func (d *decoder) stats() *EpochStats {
	s := &EpochStats{Proc: d.int(), Tick: d.u64()}
	if n := d.count(20); n > 0 {
		s.Parts = make([]PartStats, n)
		for i := range s.Parts {
			s.Parts[i] = PartStats{Part: d.int(), Cost: int64(d.u64()), Xs: d.floats()}
		}
	}
	return s
}

func (d *decoder) partStates() []PartState {
	n := d.count(13)
	if n == 0 {
		return nil
	}
	ps := make([]PartState, n)
	for i := range ps {
		ps[i] = PartState{Part: d.int(), Full: d.bool(), Values: d.envelopes(nil)}
	}
	return ps
}

func (d *decoder) restore() *Restore {
	r := &Restore{Gen: d.int(), Tick: d.u64(), Cuts: d.floats(), Assign: d.ints()}
	if n := d.count(1); n > 0 {
		r.Live = make([]bool, n)
		for i := range r.Live {
			r.Live[i] = d.bool()
		}
	}
	r.Parts = d.partStates()
	r.Peers = d.strs()
	return r
}

// Conn frames a network connection: each Frame travels as a 4-byte
// big-endian length followed by its encoding, self-contained, so frames
// can be produced by multiple writers (Send holds a lock) and relayed
// without shared encoder state.
type Conn struct {
	c  net.Conn
	r  *bufio.Reader
	mu sync.Mutex // serializes writes; also guards wt
	wt time.Duration
	// hdr, body and dec are the receiving side's length prefix, frame
	// buffer and decoder, reused from frame to frame: decoding copies
	// every value out of body.
	hdr  [4]byte
	body []byte
	dec  decoder
	// frame is what next decodes Data and EndPhase frames into.
	frame Frame
}

// NewConn wraps a network connection for framed use.
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c, r: bufio.NewReader(c)}
}

// SetWriteTimeout bounds every subsequent Send. A peer that stops draining
// its socket — a SIGSTOPped process, a silent partition — eventually fills
// the kernel buffers and would otherwise block the writer forever; with a
// timeout the blocked Send fails instead, which the coordinator treats as
// a worker failure. Zero disables the bound.
func (fc *Conn) SetWriteTimeout(d time.Duration) {
	fc.mu.Lock()
	fc.wt = d
	fc.mu.Unlock()
}

// encoders pools Send's buffers. A buffer grown past maxPooled by a bulk
// frame (a checkpoint, a final report) is left to the collector.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

const maxPooled = 1 << 20

// Send writes one frame. It is safe for concurrent use. The frame is
// encoded in full before Send returns, so the caller may reuse whatever
// it points to — a worker's replica arena relies on this. Header and body
// go out in a single Write: with TCP_NODELAY (Go's default) two writes
// would emit two segments per frame on the latency-critical relay path.
func (fc *Conn) Send(f *Frame) error {
	e := encoders.Get().(*encoder)
	defer func() {
		e.err = nil
		if cap(e.b) <= maxPooled {
			encoders.Put(e)
		}
	}()
	e.b = append(e.b[:0], 0, 0, 0, 0) // length prefix, filled in below
	e.frame(f)
	if e.err != nil {
		return fmt.Errorf("transport: encode frame: %w", e.err)
	}
	b := e.b
	if len(b)-4 > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(b)-4)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.wt > 0 {
		fc.c.SetWriteDeadline(time.Now().Add(fc.wt))
		defer fc.c.SetWriteDeadline(time.Time{})
	}
	if _, err := fc.c.Write(b); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// Recv reads one frame into a fresh Frame, which the caller may keep
// (the hub hands control frames on whole, a handshake keeps its Hello).
// A Data frame's batch is fresh memory too, except on a connection that
// feeds a TCP transport, whose reader decodes replicas into reused slots.
// Only one goroutine may call Recv at a time.
func (fc *Conn) Recv() (*Frame, error) {
	f, _, err := fc.RecvSized()
	return f, err
}

// RecvSized reads one frame, as Recv, and also reports its size on the
// wire (length prefix included) — the coordinator meters checkpoint
// traffic with it. Only one goroutine may call Recv/RecvSized at a time.
func (fc *Conn) RecvSized() (*Frame, int, error) { return fc.recv(nil) }

// next reads one frame for a reader loop that is done with a Data or
// EndPhase frame when it reads the next one (a TCP transport's, the hub's
// relay), and reports its size, as RecvSized. Such a frame decodes into
// the connection's one reused Frame, valid until the next call; every
// other kind into a fresh one, as Recv. The batch a Data frame's payload
// points to is not the Frame's: it lives as long as its decode slot
// (decoder.slotFor), or for good on a connection without one.
func (fc *Conn) next() (*Frame, int, error) { return fc.recv(&fc.frame) }

// recv reads one frame and its size on the wire, decoding a Data or
// EndPhase frame into reuse when it is not nil.
func (fc *Conn) recv(reuse *Frame) (*Frame, int, error) {
	if _, err := io.ReadFull(fc.r, fc.hdr[:]); err != nil {
		return nil, 0, err // io.EOF on clean close
	}
	n := binary.BigEndian.Uint32(fc.hdr[:])
	if n > maxFrame {
		return nil, 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	body, err := fc.readBody(int(n))
	if err != nil {
		return nil, 0, fmt.Errorf("transport: short frame: %w", err)
	}
	f, err := decodeFrame(&fc.dec, body, reuse)
	if err != nil {
		return nil, 0, err
	}
	return f, int(n) + 4, nil
}

// recvChunk is the first step by which readBody grows the frame buffer.
const recvChunk = 64 << 10

// readBody reads an n-byte frame body into the connection's reused
// buffer. The buffer grows only as bytes arrive — by at most its own size
// (at least recvChunk) per read — so a length prefix that lies costs
// about what the peer actually sent, never maxFrame.
func (fc *Conn) readBody(n int) ([]byte, error) {
	b := fc.body[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(recvChunk, len(b))))
		}
		end := min(n, cap(b))
		_, err := io.ReadFull(fc.r, b[len(b):end])
		b = b[:end]
		if err != nil {
			return nil, err
		}
	}
	fc.body = b
	return b, nil
}

// Close closes the underlying connection.
func (fc *Conn) Close() error { return fc.c.Close() }

// RemoteAddr exposes the peer address for diagnostics.
func (fc *Conn) RemoteAddr() net.Addr { return fc.c.RemoteAddr() }
