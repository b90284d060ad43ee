package transport

import (
	"fmt"
	"io"
	"sync"
)

// Hub is the coordinator's star: one framed connection per worker
// process, each read by its own goroutine. In star runs it relays the
// whole data plane — addressed Data frames and per-peer EndPhase markers
// go to their Dst — and in mesh runs it is the control plane plus a relay
// *fallback*: workers exchange data directly and the hub carries only
// stats/directives/checkpoints/heartbeats, progress notes (Dst = -1
// markers), and whatever traffic a failed peer link diverts back to it.
// The count-based barrier protocol (see TCP) is path-independent, so the
// fallback needs no ordering guarantees from the hub. Everything that is
// not relayable surfaces as HubEvents for the coordinator's control loop.
//
// Routing is dynamic: frames carry their destination, the assignment
// table backs up unaddressed ones, and both the table (SetAssign) and the
// connection set (Attach, Grow) can change mid-run when the control plane
// re-places partitions after a failure or admits a worker.
type Hub struct {
	parts  int
	events chan HubEvent

	mu       sync.Mutex
	conns    []*Conn
	live     []bool
	seqs     []int // per-proc attach sequence; fences stale disconnect events
	assign   []int
	progress []ProcProgress
	traffic  HubTraffic
}

// HubTraffic is the relay's frame accounting, split by plane. In a healthy
// mesh run the data-plane counters stay at zero in steady state — envelope
// traffic and markers travel peer-to-peer and only progress notes and
// control frames reach the star — which the chaos suite asserts; any
// DataFrames that do appear are the relay fallback earning its keep.
type HubTraffic struct {
	// DataFrames/DataBytes count relayed envelope (FrameData) traffic.
	DataFrames, DataBytes int64
	// MarkerFrames counts relayed end-of-phase markers (star mode, or a
	// mesh pair whose direct link failed).
	MarkerFrames int64
	// ProgressFrames counts mesh progress notes (Dst = -1): markers the
	// hub records for liveness and relays nowhere.
	ProgressFrames int64
	// ControlFrames counts stats/checkpoint/final/pong frames surfaced to
	// the coordinator loop.
	ControlFrames int64
}

// HubEvent is one control-plane occurrence: a control frame from a worker
// (Frame non-nil) or a worker disconnect (Frame nil, Err the reason).
// Seq is the attach sequence of the connection the event came from, so a
// consumer that re-attached the process can discard disconnects queued by
// the replaced connection. Bytes is the frame's size on the wire — the
// coordinator meters checkpoint traffic with it.
type HubEvent struct {
	Src   int
	Frame *Frame
	Err   error
	Seq   int
	Bytes int
}

// ProcProgress is one worker's data-plane progress as the relay observes
// it: the highest end-of-phase marker the worker has emitted and the
// generation it was stamped with. The coordinator's epoch-round deadline
// uses it to tell the laggard (marker missing) from the peers blocked
// waiting on it (markers present) — the two are indistinguishable at the
// control plane, where neither sends anything.
type ProcProgress struct {
	Gen   int
	Phase uint64
}

// Before reports whether p is strictly behind q in (generation, phase)
// order.
func (p ProcProgress) Before(q ProcProgress) bool {
	return p.Gen < q.Gen || (p.Gen == q.Gen && p.Phase < q.Phase)
}

// NewHub builds a relay for procs worker processes over parts partitions
// under the given initial assignment. Connections are added with Attach.
func NewHub(parts, procs int, assign []int) *Hub {
	return &Hub{
		parts:    parts,
		events:   make(chan HubEvent, 8*procs+64),
		conns:    make([]*Conn, procs),
		live:     make([]bool, procs),
		seqs:     make([]int, procs),
		assign:   append([]int(nil), assign...),
		progress: make([]ProcProgress, procs),
	}
}

// Progress snapshots every worker's observed marker progress.
func (h *Hub) Progress() []ProcProgress {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]ProcProgress(nil), h.progress...)
}

// Traffic snapshots the relay's per-plane frame accounting.
func (h *Hub) Traffic() HubTraffic {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.traffic
}

// Grow widens the hub to procs worker slots (a worker registered mid-run);
// existing connections and their attach sequences are untouched. No-op if
// the hub is already that wide.
func (h *Hub) Grow(procs int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.conns) < procs {
		h.conns = append(h.conns, nil)
		h.live = append(h.live, false)
		h.seqs = append(h.seqs, 0)
		h.progress = append(h.progress, ProcProgress{})
	}
}

// Events delivers control frames and disconnects, in per-connection
// arrival order, to the coordinator's control loop.
func (h *Hub) Events() <-chan HubEvent { return h.events }

// SetAssign swaps the partition→process routing table.
func (h *Hub) SetAssign(assign []int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.assign = append([]int(nil), assign...)
}

// Attach registers (or replaces, for a re-admitted worker) process proc's
// connection, starts its relay goroutine, and returns the connection's
// attach sequence (compare against HubEvent.Seq to spot stale events).
func (h *Hub) Attach(proc int, c *Conn) int {
	h.mu.Lock()
	seq := h.attachLocked(proc, c)
	h.mu.Unlock()
	go h.relay(proc, c)
	return seq
}

// AttachAll attaches the initial fleet, process i on conns[i], and returns
// the attach sequences. Every slot is live before the first relay starts: a
// worker sends from the moment its handshake completes, and a frame relayed
// to a slot not yet attached would be dropped as addressed to a dead
// process — leaving its receiver at the phase barrier for good.
func (h *Hub) AttachAll(conns []*Conn) []int {
	seqs := make([]int, len(conns))
	h.mu.Lock()
	for proc, c := range conns {
		seqs[proc] = h.attachLocked(proc, c)
	}
	h.mu.Unlock()
	for proc, c := range conns {
		go h.relay(proc, c)
	}
	return seqs
}

// attachLocked fills process proc's slot. Caller holds h.mu.
func (h *Hub) attachLocked(proc int, c *Conn) int {
	h.conns[proc] = c
	h.live[proc] = true
	h.seqs[proc]++
	return h.seqs[proc]
}

// Send delivers one frame to process proc.
func (h *Hub) Send(proc int, f *Frame) error {
	h.mu.Lock()
	c, ok := h.conns[proc], h.live[proc]
	h.mu.Unlock()
	if !ok || c == nil {
		return fmt.Errorf("transport: worker %d is not connected", proc)
	}
	return c.Send(f)
}

// Broadcast delivers one frame to every live process, best-effort.
func (h *Hub) Broadcast(f *Frame) {
	for _, c := range h.liveConns(-1) {
		_ = c.conn.Send(f)
	}
}

// Kill force-drops a worker the control plane has declared dead (a
// stalled process misses heartbeats but its socket is still open): the
// connection is closed and the slot marked dead *without* emitting a
// disconnect event — the caller already knows. Closing the socket also
// unwinds the worker's blocked session so its daemon can accept a rejoin
// dial. Safe to call for a connection that is already gone.
func (h *Hub) Kill(proc int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.live[proc] = false
	if c := h.conns[proc]; c != nil {
		_ = c.Close()
	}
}

// Close tears down every connection; relay goroutines exit silently.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range h.conns {
		h.live[i] = false
		if c != nil {
			_ = c.Close()
		}
	}
}

type hubConn struct {
	proc int
	conn *Conn
}

// liveConns snapshots the live connections, excluding proc (pass -1 to
// exclude none).
func (h *Hub) liveConns(except int) []hubConn {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]hubConn, 0, len(h.conns))
	for i, c := range h.conns {
		if i == except || !h.live[i] || c == nil {
			continue
		}
		out = append(out, hubConn{proc: i, conn: c})
	}
	return out
}

// drop marks a process dead and reports whether it was live along with
// its attach sequence (the caller emits the disconnect event exactly
// once, stamped so consumers can discard it if the process re-attached).
func (h *Hub) drop(proc int, c *Conn) (bool, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// A re-admitted worker replaces its dead connection; only the relay
	// that still owns the registered conn may kill the slot.
	if h.conns[proc] != c {
		return false, 0
	}
	was := h.live[proc]
	h.live[proc] = false
	_ = c.Close()
	return was, h.seqs[proc]
}

// relay forwards one worker's frames until its connection dies: Data to
// the destination partition's owner, EndPhase markers to every live peer,
// everything else to the control loop.
func (h *Hub) relay(src int, c *Conn) {
	for {
		f, n, err := c.RecvSized()
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("transport: worker %d disconnected mid-run", src)
			} else {
				err = fmt.Errorf("transport: worker %d: %w", src, err)
			}
			if was, seq := h.drop(src, c); was {
				h.events <- HubEvent{Src: src, Err: err, Seq: seq}
			}
			return
		}
		switch f.Kind {
		case FrameData:
			if f.Msg.To < 0 || int(f.Msg.To) >= h.parts {
				if was, seq := h.drop(src, c); was {
					h.events <- HubEvent{Src: src, Err: fmt.Errorf("transport: worker %d sent to unroutable partition %d", src, f.Msg.To), Seq: seq}
				}
				return
			}
			h.mu.Lock()
			h.traffic.DataFrames++
			h.traffic.DataBytes += int64(n)
			// The sender addressed the frame (Dst) under the same
			// generation's assignment this hub routes by; fall back to the
			// routing table for safety.
			dst := f.Dst
			if dst < 0 || dst >= len(h.conns) {
				dst = h.assign[f.Msg.To]
			}
			dc := h.conns[dst]
			if !h.live[dst] {
				dc = nil // owner died; the frame's generation is doomed anyway
			}
			h.mu.Unlock()
			if dc != nil {
				if err := dc.Send(f); err != nil {
					if was, seq := h.drop(dst, dc); was {
						h.events <- HubEvent{Src: dst, Err: fmt.Errorf("transport: relay to worker %d: %w", dst, err), Seq: seq}
					}
				}
			}
		case FrameEndPhase:
			h.noteProgress(src, f.Gen, f.Phase)
			if f.Dst < 0 {
				// A mesh progress note: liveness evidence only, relayed
				// nowhere.
				h.mu.Lock()
				h.traffic.ProgressFrames++
				h.mu.Unlock()
				continue
			}
			h.mu.Lock()
			h.traffic.MarkerFrames++
			var dc *Conn
			if f.Dst < len(h.conns) && h.live[f.Dst] {
				dc = h.conns[f.Dst]
			}
			h.mu.Unlock()
			if dc != nil {
				if err := dc.Send(f); err != nil {
					if was, seq := h.drop(f.Dst, dc); was {
						h.events <- HubEvent{Src: f.Dst, Err: fmt.Errorf("transport: relay to worker %d: %w", f.Dst, err), Seq: seq}
					}
				}
			}
		default:
			h.mu.Lock()
			h.traffic.ControlFrames++
			h.mu.Unlock()
			h.events <- HubEvent{Src: src, Frame: f, Bytes: n}
		}
	}
}

// noteProgress records the highest (generation, phase) marker a worker
// has emitted.
func (h *Hub) noteProgress(src, gen int, phase uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.progress[src].Before(ProcProgress{Gen: gen, Phase: phase}) {
		h.progress[src] = ProcProgress{Gen: gen, Phase: phase}
	}
}
